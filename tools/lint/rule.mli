(** The rule vocabulary shared by the syntactic pass ({!Lint}) and the
    dataflow engine ({!Dataflow}).  R1-R5 and R10 are syntactic; R6-R9
    are dataflow rules.  See DESIGN.md §8. *)

type t = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

val all : t list
val name : t -> string
val of_name : string -> t option
val equal : t -> t -> bool

val explain : t -> string
(** One-paragraph rationale and remedy, naming the historical incident
    the rule machine-checks. *)

type finding = { rule : t; file : string; line : int; col : int; msg : string }

val compare_finding : finding -> finding -> int
val pp_finding : Format.formatter -> finding -> unit

val finding_of_loc : t -> file:string -> Location.t -> string -> finding
(** A finding anchored at the start of [loc]. *)
