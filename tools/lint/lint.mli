(** fsynlint — repo-specific static analysis for the fsync code base.

    Parses [.ml]/[.mli] files with compiler-libs and enforces the repo's
    wire-determinism and crash-safety invariants: syntactic rules R1–R5
    and R10 (TCP setup only in [Fd_transport]) plus the R6–R9 dataflow
    rules (resource leaks, tainted wire lengths, event-loop blocking,
    Io-mediated syscalls) implemented in {!Dataflow}.  Findings are diffed against a checked-in baseline
    ratchet.  See DESIGN.md §8. *)

type rule = Rule.t = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

val all_rules : rule list
val rule_name : rule -> string
val rule_of_name : string -> rule option
val rule_equal : rule -> rule -> bool

val explain : rule -> string
(** One-paragraph rationale and remedy for a rule. *)

type finding = Rule.finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
val finding_compare : finding -> finding -> int

exception Parse_error of string
(** A source or baseline file that does not parse.  Unlike a rule
    violation this is not ratchetable debt: it aborts the run. *)

val is_wire_sensitive : string -> bool
(** Whether a (normalized, repo-relative) path lies in one of the
    wire-sensitive libraries subject to R1/R5. *)

val rules_for : string -> rule list
(** The rules applicable to a repo-relative [.ml] path. *)

val scan_file : string -> finding list
(** Lint one file.  [.mli] files are parse-checked only.
    @raise Parse_error when the file does not lex/parse. *)

val scan : string list -> finding list
(** Lint every [.ml]/[.mli] under the given roots (files or directories,
    searched recursively, skipping [_build] and [.git]), sorted by
    position. *)

(** {1 Baseline ratchet} *)

module Key : sig
  type t = rule * string

  val compare : t -> t -> int
end

module KeyMap : Map.S with type key = Key.t

val counts : finding list -> int KeyMap.t
(** Findings folded to per-(rule, file) counts — the ratchet currency.
    Counts are robust to unrelated line churn in a way positions are
    not. *)

val read_baseline : string -> int KeyMap.t
(** Load a baseline file; a missing file is the empty baseline.
    @raise Parse_error on malformed entries. *)

val render_baseline : int KeyMap.t -> string
(** The canonical serialized form (sorted, commented header). *)

type verdict = {
  new_violations : (rule * string * finding list) list;
      (** (rule, file, findings) where the count exceeds the baseline *)
  stale : (rule * string * int * int) list;
      (** (rule, file, baseline, current) where the recorded debt
          overstates reality and the baseline must be regenerated *)
}

val check : baseline:int KeyMap.t -> finding list -> verdict
val clean : verdict -> bool

val growth : baseline:int KeyMap.t -> finding list -> Key.t list
(** The (rule, file) keys a baseline update would {e grow} — used to
    refuse [--update-baseline] unless explicitly forced. *)

(** {1 JSON report}

    The CI artifact format, schema ["fsynlint-findings/1"]: a top-level
    object carrying the full findings list and, when a ratchet verdict
    is attached, the [new]/[stale] delta the run failed on. *)

val json_schema : string

val json_report : ?verdict:verdict -> finding list -> string
(** Serialize findings (and optionally the ratchet delta) as JSON. *)

val findings_of_json : string -> finding list
(** Recover the [findings] array from a {!json_report} document.
    @raise Parse_error on malformed input or an unknown schema tag. *)
