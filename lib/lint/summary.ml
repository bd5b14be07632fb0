(* Per-module analysis summaries.

   One [file_summary] holds everything the driver needs from a source
   file: the per-file diagnostics, the suppression table, the RX009
   export/use sides, and the function-level facts (sinks, calls,
   raises, unguarded writes, pool-submission sites) the
   interprocedural pass composes. A summary is a pure function of the
   file's bytes; the interprocedural pass runs from summaries, never
   from ASTs. *)

type sink_kind = Random_src | Clock | Domain_self | Hashtbl_order

let sink_rule = function
  | Random_src -> Diagnostic.RX001
  | Clock -> Diagnostic.RX002
  | Domain_self -> Diagnostic.RX003
  | Hashtbl_order -> Diagnostic.RX004

let sink_label = function
  | Random_src -> "Random"
  | Clock -> "wall clock"
  | Domain_self -> "Domain.self"
  | Hashtbl_order -> "Hashtbl iteration order"

type loc = { line : int; col : int }

type call = {
  callee : string list;
      (* alias-resolved reference path: ["helper"] or
         ["Core"; "Mixed"; "exact"] *)
  call_loc : loc;
  masked_exns : string list;
      (* constructors caught by enclosing handlers around this call *)
  masks_all : bool;  (* an enclosing catch-all that never re-raises *)
}

type raise_site = { exn_name : string; raise_loc : loc }
type write_site = { target : string; write_loc : loc }

type fn = {
  fn_name : string;  (* unit-local, e.g. "attempt" or "Csv.write" *)
  fn_loc : loc;
  fn_is_closure : bool;  (* synthetic node for a pool-submitted closure *)
  fn_entry_marked : bool;  (* a [rexspeed-lint: entry] directive *)
  sinks : (sink_kind * loc) list;
  calls : call list;
  raises : raise_site list;  (* not caught within the function *)
  free_writes : write_site list;
      (* unprotected writes to names the function does not bind *)
  takes_lock : bool;  (* body references Mutex.lock/Mutex.protect *)
}

type pool_site = {
  site_loc : loc;
  combinator : string;  (* "init_array", "map_list", … *)
  bodies : string list list;
      (* task-body references: closure node names or call paths *)
  encl_fn : string option;
}

type file_summary = {
  path : string;
  fns : fn list;
  pool_sites : pool_site list;
  diags : Diagnostic.t list;  (* per-file rules, pre-suppression *)
  exports : Dead_export.export list;
  uses : Dead_export.uses option;
  suppress : Suppress.t;
  parse_errors : string list;
}
