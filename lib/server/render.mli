(** Shared result renderers for the CLI and the query daemon.

    The daemon's bit-identity guarantee — a [serve] answer's [output]
    field equals the one-shot CLI stdout for the same query — is not
    checked after the fact but established by construction: the
    [optimize], [frontier] and [evaluate] subcommands and the
    corresponding daemon routes all render through these functions.
    Anything that would change the CLI output changes the served
    output identically, and the smoke test only has to confirm the
    plumbing.

    Each rendering is written straight into one buffer: floats by
    {!Report.Decimal}, tables by {!Report.Table.render_to}, the
    environment by {!Core.Env.add_text}. The bytes are exactly those
    the [Printf]/[Format] renderer wrote, and that is pinned, not only
    argued: [test/cli/optimize.expected] (every configuration, both
    modes, the infeasible exit, a 14-speed machine on the pool), a
    digest of [optimize] and of its JSON encoding over 8 configurations
    x 201 bounds x 2 modes ([test_server]), and the differential tests
    of the float writer against [Printf] ([test_report]). *)

type rendering = {
  output : string;
      (** Exactly what the one-shot CLI writes to stdout. *)
  ok : bool;
      (** [false] on the infeasible-bound outcome (CLI exit code 1);
          [output] still carries the diagnostic text. *)
}

val optimize :
  ?mode:Core.Bicrit.mode ->
  ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) ->
  env:Core.Env.t ->
  name:string ->
  rho:float ->
  unit ->
  rendering
(** The [optimize] subcommand body: configuration banner, environment
    dump, candidate table, best pair and (in two-speed mode) the
    saving versus the best single speed. One solve: the saving's
    single-speed optimum is the diagonal of the two-speed candidates
    ({!Core.Bicrit.energy_saving}). *)

val frontier :
  ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) ->
  env:Core.Env.t ->
  name:string ->
  unit ->
  rendering
(** The [frontier] subcommand body: Pareto table plus the knee point. *)

val evaluate :
  env:Core.Env.t ->
  w:float ->
  sigma1:float ->
  sigma2:float ->
  replicas:int ->
  unit ->
  rendering
(** The [evaluate] subcommand body: first-order, exact and
    distributional overheads of one pattern, plus a Monte-Carlo
    estimate when [replicas > 0]. *)
