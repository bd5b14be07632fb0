(* Metric names, the result line and its checks. *)


type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Num v when Float.is_finite v -> Printf.sprintf "%.17g" v
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj m ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) m)
      ^ "}"

let workloads = [ "serve-hot"; "serve-cold"; "fleet-hot"; "offline" ]

(* What a workload hands back: its metrics and what to record beside them. *)
type t = { metrics : (string * float) list; meta : (string * json) list }

(* Every workload reports every end-to-end metric from its untraced run,
   each defined on the workload's own operations (see README.md). *)
let end_to_end = [ "ops_per_s"; "lat_p50_ms"; "setup_s"; "peak_rss_mb" ]

(* Every workload's traced run reports every layer: the layers its own
   run does not cross come from the probes that loadgen.ml adds. *)
let per_layer =
  [
    "json.decode_us"; "json.encode_us"; "json.response_bytes"; "protocol.parse_us";
    "protocol.fingerprint_us"; "lru.find_us"; "lru.add_us"; "lru.hit_ratio"; "daemon.io_us";
    "daemon.health_rtt_us"; "render.optimize_us"; "core.solve_us"; "pool.region_us";
    "pool.task_us"; "router.hop_us"; "shard_map.lookup_us"; "shard.max_share";
    "prng.split_us"; "sim.pattern_us"; "journal.append_us"; "journal.flush_us";
    "journal.fsync_us"; "journal.read_us"; "journal.bytes_per_record"; "journal.flushes";
    "sweep.cell_us"; "residual_frac"; "trace.overhead_frac";
  ]

let metrics_json metrics = Obj (List.map (fun (name, v) -> (name, Num v)) metrics)

(* [first]'s metrics, then those of [rest] that [first] lacks. *)
let merge first rest =
  first @ List.filter (fun (name, _) -> not (List.mem_assoc name first)) rest

let unit_of name =
  let ends suffix = String.ends_with ~suffix name in
  if ends "_us" then "us"
  else if ends "_ms" then "ms"
  else if ends "_per_s" then "1/s"
  else if name = "setup_s" then "s"
  else if name = "peak_rss_mb" then "MB"
  else if ends "bytes" || ends "bytes_per_record" then "bytes"
  else if name = "journal.flushes" then "count"
  else "ratio"

(* Names the result must carry but does not, or carries as NaN or an
   infinity: either makes the run incorrect. *)
let missing_or_nonfinite ~expected metrics =
  List.filter
    (fun name ->
      match List.assoc_opt name metrics with
      | Some v -> not (Float.is_finite v)
      | None -> true)
    expected

let result_line ~correct ~attempted ~failed ~metrics ~meta =
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v) -> (name, Obj [ ("value", Num v); ("unit", Str (unit_of name)) ]))
                metrics) );
         ("meta", meta);
       ])
