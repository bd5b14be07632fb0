(** Per-module analysis summaries.

    A {!file_summary} is a pure function of one source file's bytes:
    the per-file diagnostics plus the function-level facts the
    interprocedural rules (RX012–RX014) compose. The interprocedural
    pass runs from summaries only. *)

type sink_kind = Random_src | Clock | Domain_self | Hashtbl_order

val sink_rule : sink_kind -> Diagnostic.rule
(** The per-file rule that flags a {e direct} use of this sink; its
    file allowlist also decides whether the sink seeds RX012 taint. *)

val sink_label : sink_kind -> string

type loc = { line : int; col : int }

type call = {
  callee : string list;
  call_loc : loc;
  masked_exns : string list;
  masks_all : bool;
}

type raise_site = { exn_name : string; raise_loc : loc }
type write_site = { target : string; write_loc : loc }

type fn = {
  fn_name : string;
  fn_loc : loc;
  fn_is_closure : bool;
  fn_entry_marked : bool;
  sinks : (sink_kind * loc) list;
  calls : call list;
  raises : raise_site list;
  free_writes : write_site list;
  takes_lock : bool;
}

type pool_site = {
  site_loc : loc;
  combinator : string;
  bodies : string list list;
  encl_fn : string option;
}

type file_summary = {
  path : string;
  fns : fn list;
  pool_sites : pool_site list;
  diags : Diagnostic.t list;
  exports : Dead_export.export list;
  uses : Dead_export.uses option;
  suppress : Suppress.t;
  parse_errors : string list;
}
