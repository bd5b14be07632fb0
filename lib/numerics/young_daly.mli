(** The Young/Daly checkpointing period, the one definition of it.

    It lives below both the model ({!Core.Young_daly} re-exports it as
    the paper's fail-stop baseline) and the run journal
    ({!Resilience.Checkpointed} spaces its durability points by it), so
    the two cannot drift apart. *)

val failstop_period : c:float -> lambda:float -> float
(** Young/Daly: [sqrt (2 c / lambda)] — optimal work between
    checkpoints at unit speed under fail-stop errors of rate [lambda],
    for a checkpoint of cost [c].
    @raise Invalid_argument on non-positive or non-finite [c] or
    [lambda]. *)
