(* The benchmark's own spans: kept in memory while the run measures and
   written out once, as Chrome trace_event JSON, when it ends. *)

type t = {
  index : (string, int) Hashtbl.t;
  mutable names : string list;  (** interned names, newest first *)
  name : Stats.samples;
  id : Stats.samples;
  start : Stats.samples;
  stop : Stats.samples;
}

let create () =
  {
    index = Hashtbl.create 16;
    names = [];
    name = Stats.samples ();
    id = Stats.samples ();
    start = Stats.samples ();
    stop = Stats.samples ();
  }

let add t ~name ~id ~start ~stop =
  let k =
    match Hashtbl.find_opt t.index name with
    | Some k -> k
    | None ->
        let k = Hashtbl.length t.index in
        Hashtbl.replace t.index name k;
        t.names <- name :: t.names;
        k
  in
  Stats.push t.name (float_of_int k);
  Stats.push t.id (float_of_int id);
  Stats.push t.start start;
  Stats.push t.stop stop

let time t ~name ~id f =
  let start = Stats.now () in
  let v = f () in
  add t ~name ~id ~start ~stop:(Stats.now ());
  v

let count t = t.name.len

(* One complete event per span; each span name gets its own track. *)
let write t ~path =
  let names = Array.of_list (List.rev t.names) in
  let origin = if t.start.len = 0 then 0. else t.start.data.(0) in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc {|{"displayTimeUnit":"ns","traceEvents":[|};
      for i = 0 to t.name.len - 1 do
        let k = truncate t.name.data.(i) in
        Printf.fprintf oc
          {|%s{"name":"%s","cat":"perfbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}|}
          (if i = 0 then "" else ",\n")
          names.(k) k
          ((t.start.data.(i) -. origin) *. 1e6)
          ((t.stop.data.(i) -. t.start.data.(i)) *. 1e6)
          (truncate t.id.data.(i))
      done;
      output_string oc "]}\n");
  Sys.rename tmp path
