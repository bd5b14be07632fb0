(* What one run knows and accumulates. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  exe : string;  (** the rexspeed binary *)
  dir : string;  (** private directory for sockets, logs and journals *)
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, for stderr *)
}

let note t message = if List.length t.notes < 10 then t.notes <- message :: t.notes

(* One operation checked by the oracle. *)
let check t ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    note t what
  end;
  ok

(* [n] operations already counted as attempted turned out wrong. *)
let fail_counted t n ~what =
  t.failed <- t.failed + n;
  note t what
