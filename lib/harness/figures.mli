(** Reproduction of every table/figure in the paper's evaluation (§IV).

    Each function renders the corresponding figure as text (same rows,
    same bracket/parenthesis annotations as the paper) and also returns the
    raw measurements so tests and EXPERIMENTS.md generation can assert on
    them.  Times are virtual seconds (10⁶ virtual cycles); see
    EXPERIMENTS.md for the unit and calibration discussion.

    Worker accounting matches the paper: "P cores" gives PINT P−3 core
    workers plus the three treap workers, while the baseline and C-RACER
    use all P cores as core workers.  [cores] defaults to 20 (the paper's
    single-socket configuration). *)

type fig1_row = {
  f1_name : string;
  base1 : float;
  stint1 : float;
  pint1 : float;
  cracer1 : float;
  base_p : float;
  pint_p : float;
  cracer_p : float;
}

val fig1 : ?cores:int -> unit -> fig1_row list * string

type fig2_row = {
  f2_name : string;
  par_overhead : float;  (** PINT₁ / STINT₁ *)
  core_work : float;
  writer_work : float;
  rreader_work : float;
  lreader_work : float;
  par_core : float;  (** core-component time on [cores] *)
  par_total : float;
}

val fig2 : ?cores:int -> unit -> fig2_row list * string

type fig3_cell = { total_t : float; core_t : float }

(** Strong scaling of PINT: rows = heat/mmul/sort/stra, columns = core
    worker counts (1, 4, 8, 16, 24, 32). *)
val fig3 : unit -> (string * (int * fig3_cell) list) list * string

type fig4_cell = { f4_workers : int; f4_size : int; f4_base_t : float; f4_pint : fig3_cell }

(** Weak scaling: heat/sort double the problem size per core-worker
    doubling, mmul scales the matrix dimension by 1.5x, stra doubles it. *)
val fig4 : unit -> (string * fig4_cell list) list * string
