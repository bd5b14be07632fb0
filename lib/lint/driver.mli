(** Walk source roots, parse every [.ml]/[.mli], run all rules.

    Directories named [_build], [lint_fixtures] or starting with a
    dot are skipped: the first two hold build artifacts and the
    linter's own deliberately-violating test corpus. Files are
    visited in sorted order so reports are byte-stable.

    The scan is two-phase: pass 1 parses every file into one
    {!Summary.file_summary}, pass 2 runs the whole-program analyses —
    RX009 dead exports plus the interprocedural RX012–RX014 over the
    {!Callgraph} — from those summaries only. *)

type report = {
  findings : Diagnostic.t list;
      (** suppression-filtered, sorted; baseline not yet applied *)
  suppressed : int;  (** findings silenced by per-line comments *)
  files_scanned : int;
  errors : string list;
      (** parse failures and malformed suppression directives — these
          fail the run independently of [findings] *)
  graph : Callgraph.t;  (** for [--graph] DOT/JSON export *)
}

val default_roots : string list
(** [["lib"; "bin"; "bench"; "test"]] *)

val scan : roots:string list -> unit -> report
(** [roots] may mix files and directories; nonexistent roots are
    reported in [errors]. *)

val apply_baseline :
  Baseline.t -> Diagnostic.t list -> Diagnostic.t list * Diagnostic.t list
(** [(kept, baselined)]. An interprocedural finding is matched by its
    entry-side anchor, i.e. the same [file:line:RXnnn] key as any
    other finding. *)
