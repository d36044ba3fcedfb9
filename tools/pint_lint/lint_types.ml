(* Shared vocabulary of the linter: rule identifiers, findings, and the
   rule configuration (banned idents, known allocators, node types).

   A finding's identity for baseline matching is deliberately line-number
   free: (rule, source basename, enclosing context, kind).  Line numbers
   drift with every edit; the enclosing function or field almost never
   does, and kind-level granularity means one baseline entry covers every
   occurrence of that construct inside that context — which is the right
   unit for justifications like "path copies are the operation's result". *)

type rule =
  | R1_hot_alloc
  | R2_poly_compare
  | R3_ownership
  | R4_forbidden
  | R5_publication
  | R6_single_writer

let rule_id = function
  | R1_hot_alloc -> "R1"
  | R2_poly_compare -> "R2"
  | R3_ownership -> "R3"
  | R4_forbidden -> "R4"
  | R5_publication -> "R5"
  | R6_single_writer -> "R6"

let rule_title = function
  | R1_hot_alloc -> "hot-path allocation"
  | R2_poly_compare -> "polymorphic compare/equality/hash"
  | R3_ownership -> "ownership discipline"
  | R4_forbidden -> "forbidden identifier"
  | R5_publication -> "cross-domain publication"
  | R6_single_writer -> "single-writer discipline"

let all_rules =
  [ R1_hot_alloc; R2_poly_compare; R3_ownership; R4_forbidden; R5_publication; R6_single_writer ]

type finding = {
  rule : rule;
  file : string;  (** source path as recorded in the typedtree locations *)
  line : int;
  col : int;
  context : string;  (** enclosing function, or [Module.type.field] for R3 *)
  kind : string;  (** stable slug: "tuple", "closure", "poly-compare", … *)
  message : string;
}

let make_finding ~rule ~loc ~context ~kind message =
  let p = loc.Location.loc_start in
  {
    rule;
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    context;
    kind;
    message;
  }

(* Baseline identity — see the module comment. *)
let fingerprint f = (rule_id f.rule, Filename.basename f.file, f.context, f.kind)

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s/%s] (%s) %s" f.file f.line f.col (rule_id f.rule) f.kind f.context
    f.message

let compare_findings a b =
  compare (a.file, a.line, a.col, rule_id a.rule, a.kind) (b.file, b.line, b.col, rule_id b.rule, b.kind)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json f =
  Printf.sprintf
    {|{"rule":"%s","kind":"%s","file":"%s","line":%d,"col":%d,"context":"%s","message":"%s"}|}
    (rule_id f.rule) (json_escape f.kind) (json_escape f.file) f.line f.col
    (json_escape f.context) (json_escape f.message)

(* ------------------------------------------------------ rule configuration *)

(* Fully applied calls to these are polymorphic structural comparison /
   hashing at whatever type they are instantiated: banned outright at node
   types (R2), and banned at every type inside [@pint.hot] bodies, where
   even an int-instantiated [min] is an out-of-line call into the
   polymorphic compare runtime. *)
let poly_compare_idents =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
    "Hashtbl.hash";
    "Stdlib.Hashtbl.hash";
    "List.mem";
    "Stdlib.List.mem";
    "List.assoc";
    "Stdlib.List.assoc";
    "List.mem_assoc";
    "Stdlib.List.mem_assoc";
  ]

(* Structural identity of these types is meaningless (they carry mutable
   labels, priorities or physical-identity semantics), so polymorphic
   compare at any type containing them is a correctness bug, not a style
   issue: OM labels are rewritten by relabelling, treap priorities are
   per-instance randomness, strand records are compared by [==] only.
   Pairs are (defining module, type name). *)
let node_types =
  [
    ("Om", "record");
    ("Om", "group");
    ("Om", "t");
    ("Itreap", "node");
    ("Itreap", "t");
    ("Itreap", "scratch");
    ("Srec", "t");
    ("Sp_order", "strand");
  ]

(* Callees known to allocate their result — the intra-procedural R1 pass
   cannot see into callees, so the usual allocating entry points are named
   here.  (Pervasive exception raisers are deliberately absent: an error
   path is allowed to allocate its exception.) *)
let allocating_idents =
  [
    "Stdlib.ref";
    "Stdlib.@";
    "Stdlib.^";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.append";
    "Array.sub";
    "Array.of_list";
    "Array.to_list";
    "Array.make_matrix";
    "Stdlib.Array.make";
    "Stdlib.Array.init";
    "Stdlib.Array.copy";
    "Stdlib.Array.append";
    "Stdlib.Array.sub";
    "Stdlib.Array.of_list";
    "Stdlib.Array.to_list";
    "List.rev";
    "List.map";
    "List.mapi";
    "List.append";
    "List.concat";
    "List.filter";
    "List.init";
    "List.sort";
    "List.merge";
    "List.of_seq";
    "Stdlib.List.rev";
    "Stdlib.List.map";
    "Stdlib.List.append";
    "Bytes.create";
    "Bytes.make";
    "Bytes.copy";
    "Bytes.sub";
    "String.make";
    "String.sub";
    "String.concat";
    "String.init";
    "Buffer.create";
    "Printf.sprintf";
    "Format.asprintf";
    "Queue.create";
    "Hashtbl.create";
    (* repo-local boxed-value factories *)
    "Interval.make";
    "Interval.hull";
    "Interval.point";
    "Interval.inter";
  ]

(* R4: never acceptable in lib/ (soundness escapes / process control). *)
let forbidden_idents = [ "Obj.magic"; "Obj.repr"; "Obj.obj"; "Stdlib.exit" ]

(* R4: banned inside [@pint.hot] bodies only — formatting machinery, and
   blocking synchronization: the lock-free transfer paths (deque steal,
   queue enqueue) are hot-marked precisely so a mutex can never creep back
   onto them. *)
let hot_forbidden_prefixes =
  [
    "Printf.";
    "Format.";
    "Stdlib.Printf.";
    "Stdlib.Format.";
    "Mutex.";
    "Stdlib.Mutex.";
    "Condition.";
    "Stdlib.Condition.";
  ]

(* Mutable containers whose head constructor makes a field "mutable in
   effect" even when the field itself is immutable. *)
let mutable_container_heads = [ "array"; "Stdlib.Bytes.t"; "Bytes.t"; "bytes"; "floatarray" ]

(* Heads that make a mutable field safe to share without a manifest entry. *)
let synchronized_heads =
  [
    "Atomic.t";
    "Stdlib.Atomic.t";
    "Mutex.t";
    "Stdlib.Mutex.t";
    "Condition.t";
    "Stdlib.Condition.t";
    "Semaphore.Counting.t";
    "Semaphore.Binary.t";
  ]

let hot_attribute = "pint.hot"

(* ---------------------------------------------- R5/R6 whole-program config *)

(* Happens-before edge attributes (DESIGN.md §15).  On a mutable field
   declaration, [@pint.publishes "e1 e2"] declares that plain writes to the
   field ride the named publication edges.  On a function binding,
   [@pint.publishes "e"] marks it as performing the releasing atomic write
   of edge [e] (its plain writes to fields bound to [e] are ordered before
   that release), and [@pint.acquires "e"] marks its reads as ordered after
   the acquiring atomic read of [e]. *)
let publishes_attribute = "pint.publishes"
let acquires_attribute = "pint.acquires"

(* Functions whose function-typed argument runs on a freshly spawned
   domain: the argument (and everything it references) is a multi-domain
   entry point. *)
let spawn_sinks = [ "Domain.spawn"; "Stdlib.Domain.spawn" ]

(* Known synchronous higher-order callees: a closure passed to one of
   these runs to completion on the caller's own domain, so it inherits the
   caller's domain context instead of being treated as escaping.
   Prefix-matched on the normalized callee name. *)
let sync_hof_prefixes =
  [
    "List.";
    "Array.";
    "Option.";
    "Result.";
    "Seq.";
    "Fun.";
    "Hashtbl.";
    "Queue.";
    "Stack.";
    "String.";
    "Bytes.";
    "Map.";
    "Set.";
    "Float.";
    "Int.";
    "Char.";
    "Either.";
    "Filename.";
    "Sys.";
    "Printf.";
    "Format.";
    "Arg.";
    "Atomic.";
    "Printexc.";
    "Buffer.";
    "Vec.";
    "Jsonx.";
  ]

(* Entry points seeded by name (beyond what {!spawn_sinks} discovers):
   code the linter cannot see calls these concurrently with running
   domains, so everything they reach is analyzed as multi-domain context.
   [Replay.Session] is driven by the serve IO loop while shared-pool
   domains consume the detector's access-history queue (DESIGN.md §14). *)
let seed_name_patterns =
  [ "Replay.Session.feed"; "Replay.Session.eof"; "Replay.Session.abort"; "Replay.Session.poll_races" ]

(* Type heads that make a module-level VALUE (not a record field) mutable:
   a global of such a type accessed from multi-domain context needs the
   same publication story as a mutable field. *)
let mutable_value_heads = [ "ref"; "array"; "bytes"; "Bytes.t"; "Buffer.t"; "Queue.t"; "Hashtbl.t" ]

(* [Stdlib.exit] is a soundness escape inside lib/ but the normal way for
   an entry point to report status: R4 keeps banning it under these
   prefixes only. *)
let exit_banned_prefixes = [ "lib/" ]

(* Owner columns naming one of these disciplines are lock-protected: R5
   publication does not apply (the lock is the happens-before edge). *)
let lock_owner_markers = [ "mutex"; "lock"; "seqlock" ]
