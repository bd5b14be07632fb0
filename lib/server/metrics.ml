let window = 512

(* Per-route accumulator: exact running min/mean/max over every
   sample, plus a ring of the last [window] latencies for the
   percentile (exact percentiles over an unbounded stream would grow
   without bound — a bounded window matches what an operator wants
   from a live p99 anyway). *)
type route_acc = {
  mutable requests : int;
  mutable errors : int;
  mutable lat_min : float;
  mutable lat_max : float;
  mutable lat_sum : float;
  ring : float array;
  mutable ring_len : int;
  mutable ring_next : int;
}

type t = {
  started_at : float;
  table : (string, route_acc) Hashtbl.t;
}

let now_s () = Unix.gettimeofday ()

let create () = { started_at = now_s (); table = Hashtbl.create 8 }

let acc_for t route =
  match Hashtbl.find_opt t.table route with
  | Some acc -> acc
  | None ->
      let acc =
        {
          requests = 0;
          errors = 0;
          lat_min = infinity;
          lat_max = neg_infinity;
          lat_sum = 0.;
          ring = Array.make window 0.;
          ring_len = 0;
          ring_next = 0;
        }
      in
      Hashtbl.replace t.table route acc;
      acc

let record t ~route ~ok ~latency_s =
  let acc = acc_for t route in
  acc.requests <- acc.requests + 1;
  if not ok then acc.errors <- acc.errors + 1;
  if latency_s < acc.lat_min then acc.lat_min <- latency_s;
  if latency_s > acc.lat_max then acc.lat_max <- latency_s;
  acc.lat_sum <- acc.lat_sum +. latency_s;
  acc.ring.(acc.ring_next) <- latency_s;
  acc.ring_next <- (acc.ring_next + 1) mod window;
  if acc.ring_len < window then acc.ring_len <- acc.ring_len + 1

type route_stats = {
  route : string;
  requests : int;
  errors : int;
  latency_min_s : float;
  latency_mean_s : float;
  latency_max_s : float;
  latency_p99_s : float;
}

(* Nearest-rank p99 of a non-empty sample array (sorted in place). *)
let p99 samples =
  Array.sort Float.compare samples;
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
  samples.(max 0 (min (n - 1) (rank - 1)))

let ring_samples acc = Array.sub acc.ring 0 acc.ring_len

(* Empty unions (no samples yet) and NaN-poisoned extrema must both
   surface as [nan], never as the +/-infinity seeds of the running
   min/max — JSON rendering and operators treat [nan] as "no data",
   while an infinity leaks into comparisons silently. *)
let finite_or_nan x = if Float.is_finite x then x else nan

let stats_of route (acc : route_acc) extra_samples =
  let samples = Array.concat (ring_samples acc :: extra_samples) in
  {
    route;
    requests = acc.requests;
    errors = acc.errors;
    latency_min_s = (if acc.requests = 0 then nan else finite_or_nan acc.lat_min);
    latency_mean_s =
      (if acc.requests = 0 then nan
       else finite_or_nan (acc.lat_sum /. float_of_int acc.requests));
    latency_max_s = (if acc.requests = 0 then nan else finite_or_nan acc.lat_max);
    latency_p99_s = (if Array.length samples = 0 then nan else p99 samples);
  }

let routes t =
  Hashtbl.fold (fun route acc l -> (route, acc) :: l) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (route, acc) -> stats_of route acc [])

let totals t =
  let accs = Hashtbl.fold (fun _ acc l -> acc :: l) t.table [] in
  let total =
    {
      requests = 0;
      errors = 0;
      lat_min = infinity;
      lat_max = neg_infinity;
      lat_sum = 0.;
      ring = [||];
      ring_len = 0;
      ring_next = 0;
    }
  in
  List.iter
    (fun (acc : route_acc) ->
      total.requests <- total.requests + acc.requests;
      total.errors <- total.errors + acc.errors;
      if acc.lat_min < total.lat_min then total.lat_min <- acc.lat_min;
      if acc.lat_max > total.lat_max then total.lat_max <- acc.lat_max;
      total.lat_sum <- total.lat_sum +. acc.lat_sum)
    accs;
  stats_of "total" total (List.map ring_samples accs)

let uptime_s t = Unix.gettimeofday () -. t.started_at
