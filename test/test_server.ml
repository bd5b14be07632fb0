(* Tests for the query-daemon subsystem: the hand-rolled JSON codec
   (round-trip identity, precise error positions), the LRU result
   cache, the metrics core, the request protocol with its canonical
   fingerprints, the shared renderers, and an in-process end-to-end
   pass over a Unix-domain socket. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let expect_ok label = function
  | Ok v -> v
  | Error (e : Server.Json.error) ->
      Alcotest.failf "%s: unexpected decode error: %s" label
        (Server.Json.error_to_string e)

let expect_error label = function
  | Ok _ -> Alcotest.failf "%s: expected a decode error" label
  | Error (e : Server.Json.error) -> e

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let rec json_equal (a : Server.Json.t) (b : Server.Json.t) =
  match (a, b) with
  | Server.Json.Null, Server.Json.Null -> true
  | Server.Json.Bool x, Server.Json.Bool y -> x = y
  | Server.Json.Int x, Server.Json.Int y -> x = y
  | Server.Json.Float x, Server.Json.Float y -> Float.compare x y = 0
  | Server.Json.String x, Server.Json.String y -> String.equal x y
  | Server.Json.List x, Server.Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Server.Json.Obj x, Server.Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           x y
  | _ -> false

(* Generator of arbitrary JSON values: escape-heavy strings (quotes,
   control characters, raw high bytes), full-range ints, finite
   floats, bounded nesting. *)
let gen_json =
  let open QCheck.Gen in
  let gen_string =
    let char =
      frequency
        [
          (8, char_range 'a' 'z');
          (2, char_range '0' '9');
          (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\012'; ' '; '\001' ]);
          (1, map Char.chr (int_range 0x80 0xff));
        ]
    in
    string_size ~gen:char (int_range 0 12)
  in
  let gen_float =
    map
      (fun (mantissa, exponent) ->
        let v = mantissa *. (10. ** float_of_int exponent) in
        if Float.is_finite v then v else 0.)
      (pair (float_range (-1000.) 1000.) (int_range (-12) 12))
  in
  let leaf =
    frequency
      [
        (1, return Server.Json.Null);
        (2, map (fun b -> Server.Json.Bool b) bool);
        (4, map (fun i -> Server.Json.Int i) int);
        (4, map (fun v -> Server.Json.Float v) gen_float);
        (4, map (fun s -> Server.Json.String s) gen_string);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 1,
            map
              (fun l -> Server.Json.List l)
              (list_size (int_range 0 4) (node (depth - 1))) );
          ( 1,
            map
              (fun members -> Server.Json.Obj members)
              (list_size (int_range 0 4) (pair gen_string (node (depth - 1))))
          );
        ]
  in
  node 3

let test_json_roundtrip =
  Testutil.qcheck
  @@ QCheck.Test.make ~count:500
       ~name:"JSON decode(encode v) = v on arbitrary nested values"
       (QCheck.make gen_json ~print:Server.Json.encode)
       (fun v ->
         match Server.Json.decode (Server.Json.encode v) with
         | Ok v' -> json_equal v v'
         | Error _ -> false)

let test_json_encode () =
  let check label expected v =
    Alcotest.(check string) label expected (Server.Json.encode v)
  in
  check "canonical object"
    {|{"a":1,"b":[true,null,"x"]}|}
    (Server.Json.Obj
       [
         ("a", Server.Json.Int 1);
         ( "b",
           Server.Json.List
             [ Server.Json.Bool true; Server.Json.Null; Server.Json.String "x" ]
         );
       ]);
  check "floats keep a marker" "2.0" (Server.Json.Float 2.);
  check "shortest round-trip float" "0.1" (Server.Json.Float 0.1);
  check "control characters escape" {|"a\u0001\n"|}
    (Server.Json.String "a\001\n");
  Testutil.check_raises_invalid "non-finite floats are rejected" (fun () ->
      Server.Json.encode (Server.Json.Float Float.nan))

(* The byte-by-byte escaper the run-copying one replaced, kept as the
   reference it must match. *)
let reference_escape s =
  let buffer = Buffer.create 16 in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\b' -> Buffer.add_string buffer "\\b"
      | '\012' -> Buffer.add_string buffer "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let test_json_escape_differential () =
  let mismatches = ref 0 in
  let check s =
    let v = Server.Json.String s in
    let want = reference_escape s in
    if
      not
        (String.equal (Server.Json.encode v) want
        && String.equal (Server.Json.encode_line v) (want ^ "\n")
        && String.equal
             (Server.Json.encode (Server.Json.Obj [ (s, Server.Json.Null) ]))
             ("{" ^ want ^ ":null}"))
    then begin
      incr mismatches;
      if !mismatches <= 5 then Printf.eprintf "escape mismatch on %S\n" s
    end
  in
  for code = 0 to 255 do
    check (String.make 1 (Char.chr code))
  done;
  (* Uniform bytes, and mostly printable text with sparse escapes so
     that runs of every length end at every kind of byte. *)
  let rng = Prng.Rng.create ~seed:23 in
  let byte () = Char.chr (Prng.Rng.int rng ~bound:256) in
  let texty () =
    if Prng.Rng.bernoulli rng ~p:0.9 then
      Char.chr (32 + Prng.Rng.int rng ~bound:95)
    else byte ()
  in
  for i = 1 to 100_000 do
    let len = Prng.Rng.int rng ~bound:(if i mod 100 = 0 then 2000 else 40) in
    check (String.init len (fun _ -> if i mod 2 = 0 then byte () else texty ()))
  done;
  Alcotest.(check int) "mismatches against the byte-by-byte escaper" 0
    !mismatches

let test_json_decode () =
  let ok label expected input =
    let v = expect_ok label (Server.Json.decode input) in
    if not (json_equal expected v) then
      Alcotest.failf "%s: decoded %s" label (Server.Json.encode v)
  in
  ok "whitespace tolerated"
    (Server.Json.Obj [ ("k", Server.Json.Int 1) ])
    " { \"k\" :\t1 } ";
  ok "numbers split int/float"
    (Server.Json.List
       [ Server.Json.Int (-3); Server.Json.Float 2.5; Server.Json.Float 1e3 ])
    "[-3, 2.5, 1e3]";
  ok "escapes" (Server.Json.String "a\"\\\n\t") {|"a\"\\\n\t"|};
  ok "\\u BMP escape decodes to UTF-8" (Server.Json.String "A\xc3\xa9")
    {|"Aé"|};
  ok "surrogate pair" (Server.Json.String "\xf0\x9f\x98\x80")
    {|"😀"|};
  ok "underflow is not out of range"
    (Server.Json.List [ Server.Json.Float 0.; Server.Json.Float (-0.) ])
    "[1e-400, -1e-400]";
  ok "integers at the native bounds"
    (Server.Json.List
       [
         Server.Json.Int max_int;
         Server.Json.Int min_int;
         Server.Json.Int 999_999_999_999_999_999;
         Server.Json.Float 4611686018427387904.;
       ])
    "[4611686018427387903, -4611686018427387904, 999999999999999999, \
     4611686018427387904]";
  ok "duplicate keys preserved"
    (Server.Json.Obj [ ("k", Server.Json.Int 1); ("k", Server.Json.Int 2) ])
    {|{"k":1,"k":2}|};
  Alcotest.(check bool)
    "member returns the first duplicate" true
    (Server.Json.member "k"
       (expect_ok "dup" (Server.Json.decode {|{"k":1,"k":2}|}))
    = Some (Server.Json.Int 1))

let test_json_error_positions () =
  let check label input expected_position fragment =
    let e = expect_error label (Server.Json.decode input) in
    Alcotest.(check int) (label ^ ": position") expected_position e.position;
    if not (contains ~affix:fragment (Server.Json.error_to_string e)) then
      Alcotest.failf "%s: error %S does not mention %S" label
        (Server.Json.error_to_string e)
        fragment
  in
  check "empty input" "" 0 "end of input";
  check "missing value" {|{"a":}|} 5 "unexpected character '}'";
  check "truncated object" {|{"a": 1|} 7 "unterminated object";
  check "missing colon" {|{"a" 1}|} 5 "expected ':'";
  check "bad literal" "nul" 0 "invalid literal";
  check "trailing garbage" "{} x" 3 "trailing garbage";
  check "unterminated string" {|"abc|} 4 "unterminated string";
  check "bad escape" {|"a\q"|} 3 "invalid escape";
  check "unpaired surrogate" {|"\ud83d"|} 1 "unpaired high surrogate";
  check "control character" "\"a\001\"" 2 "unescaped control character";
  (* A number a double cannot hold is refused at its first byte. *)
  check "out-of-range exponent" {|{"route":"health","id":1e999}|} 23
    "number out of range";
  check "out-of-range negative" "[1, -1e400]" 4 "number out of range";
  check "out-of-range integer" (String.make 400 '9') 0 "number out of range";
  (* 65 opening brackets: the depth guard fires entering level 65 with
     max_depth = 64, after the 65th '[' has been consumed. *)
  check "nesting too deep"
    (String.concat "" (List.init 65 (fun _ -> "[")))
    65 "nesting too deep"

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru () =
  let c = Server.Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "miss on empty" None (Server.Lru.find c "a");
  Server.Lru.add c "a" "1";
  Server.Lru.add c "b" "2";
  Alcotest.(check (option string)) "hit a" (Some "1") (Server.Lru.find c "a");
  (* "b" is now least recently used; inserting "c" evicts it. *)
  Server.Lru.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Server.Lru.find c "b");
  Alcotest.(check (option string)) "a kept" (Some "1") (Server.Lru.find c "a");
  Alcotest.(check (option string)) "c kept" (Some "3") (Server.Lru.find c "c");
  Alcotest.(check int) "length" 2 (Server.Lru.length c);
  (* Replacing a key keeps the size bounded and updates the value. *)
  Server.Lru.add c "c" "3'";
  Alcotest.(check int) "replace keeps length" 2 (Server.Lru.length c);
  Alcotest.(check (option string))
    "replace updates" (Some "3'")
    (Server.Lru.find c "c")

let test_lru_disabled () =
  let c = Server.Lru.create ~capacity:0 in
  Server.Lru.add c "a" "1";
  Alcotest.(check (option string))
    "capacity 0 never stores" None (Server.Lru.find c "a");
  Alcotest.(check int) "length stays 0" 0 (Server.Lru.length c);
  Testutil.check_raises_invalid "negative capacity" (fun () ->
      ignore (Server.Lru.create ~capacity:(-1)))

let test_lru_eviction_order =
  (* Model check: an LRU of capacity k holds exactly the k most
     recently touched distinct keys, where both hits and inserts count
     as touches. *)
  Testutil.qcheck
  @@ QCheck.Test.make ~count:200 ~name:"LRU agrees with a naive model"
       QCheck.(list (int_range 0 9))
       (fun touches ->
         let capacity = 4 in
         let c = Server.Lru.create ~capacity in
         let model = ref [] in
         List.iter
           (fun k ->
             let key = string_of_int k in
             (match Server.Lru.find c key with
             | Some _ -> ()
             | None -> Server.Lru.add c key k);
             model := key :: List.filter (( <> ) key) !model;
             if List.length !model > capacity then
               model := List.filteri (fun i _ -> i < capacity) !model)
           touches;
         List.for_all (fun key -> Server.Lru.find c key <> None) !model)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics () =
  let m = Server.Metrics.create () in
  for i = 1 to 100 do
    Server.Metrics.record m ~route:"optimize" ~ok:(i mod 10 <> 0)
      ~latency_s:(float_of_int i /. 1000.)
  done;
  Server.Metrics.record m ~route:"stats" ~ok:true ~latency_s:0.5;
  (match Server.Metrics.routes m with
  | [ opt; st ] ->
      let opt : Server.Metrics.route_stats = opt in
      let st : Server.Metrics.route_stats = st in
      Alcotest.(check string) "sorted by name" "optimize" opt.route;
      Alcotest.(check int) "requests" 100 opt.requests;
      Alcotest.(check int) "errors" 10 opt.errors;
      Testutil.checkf "min" 0.001 opt.latency_min_s;
      Testutil.checkf "max" 0.1 opt.latency_max_s;
      Testutil.checkf ~eps:1e-6 "mean" 0.0505 opt.latency_mean_s;
      Testutil.checkf "p99 (nearest rank of 1..100 ms)" 0.099 opt.latency_p99_s;
      Alcotest.(check string) "second route" "stats" st.route
  | routes -> Alcotest.failf "expected 2 routes, got %d" (List.length routes));
  let totals : Server.Metrics.route_stats = Server.Metrics.totals m in
  Alcotest.(check string) "totals route name" "total" totals.route;
  Alcotest.(check int) "total requests" 101 totals.requests;
  Alcotest.(check int) "total errors" 10 totals.errors;
  Testutil.checkf "total max" 0.5 totals.latency_max_s;
  Alcotest.(check bool) "uptime advances" true (Server.Metrics.uptime_s m >= 0.)

let test_metrics_nan_poison () =
  (* A NaN latency must not leak the +/-infinity seeds of the running
     min/max into the stats (NaN fails every comparison, so the seeds
     would otherwise survive a non-empty route). *)
  let m = Server.Metrics.create () in
  Server.Metrics.record m ~route:"solve" ~ok:true ~latency_s:nan;
  (match Server.Metrics.routes m with
  | [ r ] ->
      let r : Server.Metrics.route_stats = r in
      Alcotest.(check int) "request counted" 1 r.requests;
      Alcotest.(check bool) "min is NaN, not +infinity" true
        (Float.is_nan r.latency_min_s);
      Alcotest.(check bool) "max is NaN, not -infinity" true
        (Float.is_nan r.latency_max_s);
      Alcotest.(check bool) "mean is NaN" true (Float.is_nan r.latency_mean_s)
  | routes -> Alcotest.failf "expected 1 route, got %d" (List.length routes));
  let totals : Server.Metrics.route_stats = Server.Metrics.totals m in
  Alcotest.(check bool) "union min is NaN" true
    (Float.is_nan totals.latency_min_s);
  Alcotest.(check bool) "union max is NaN" true
    (Float.is_nan totals.latency_max_s)

let test_metrics_empty () =
  let m = Server.Metrics.create () in
  Alcotest.(check int) "no routes" 0 (List.length (Server.Metrics.routes m));
  let totals : Server.Metrics.route_stats = Server.Metrics.totals m in
  Alcotest.(check int) "no requests" 0 totals.requests;
  Alcotest.(check bool)
    "latencies are NaN before any sample" true
    (Float.is_nan totals.latency_min_s && Float.is_nan totals.latency_p99_s)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let decode_request label line =
  match Server.Json.decode line with
  | Error e -> Alcotest.failf "%s: %s" label (Server.Json.error_to_string e)
  | Ok json -> Server.Protocol.parse json

let test_protocol_parse () =
  let parse label line =
    match decode_request label line with
    | Ok r -> r
    | Error reason -> Alcotest.failf "%s: rejected: %s" label reason
  in
  (match parse "defaults" {|{"route":"optimize"}|} with
  | Server.Protocol.Optimize { config; rho; single_speed } ->
      Alcotest.(check string)
        "default config" "Hera/XScale"
        (Platforms.Config.name config);
      Testutil.checkf "default rho" 3. rho;
      Alcotest.(check bool) "default mode" false single_speed
  | _ -> Alcotest.fail "expected Optimize");
  (match
     parse "evaluate"
       {|{"route":"evaluate","params":{"w":2764,"s1":0.4,"s2":1,"replicas":5}}|}
   with
  | Server.Protocol.Evaluate { w; sigma1; sigma2; replicas; _ } ->
      Testutil.checkf "w" 2764. w;
      Testutil.checkf "s1" 0.4 sigma1;
      Testutil.checkf "s2" 1. sigma2;
      Alcotest.(check int) "replicas" 5 replicas
  | _ -> Alcotest.fail "expected Evaluate");
  let reject label line fragment =
    match decode_request label line with
    | Ok _ -> Alcotest.failf "%s: unexpectedly accepted" label
    | Error reason ->
        if not (contains ~affix:fragment reason) then
          Alcotest.failf "%s: error %S does not mention %S" label reason
            fragment
  in
  reject "unknown route" {|{"route":"shutdown"}|} "unknown route";
  reject "missing route" {|{"id":1}|} "\"route\" member";
  reject "bad config" {|{"route":"frontier","params":{"config":"zeus/apollo"}}|}
    "unknown configuration";
  reject "negative rho" {|{"route":"optimize","params":{"rho":-1}}|}
    "positive number";
  reject "missing w" {|{"route":"evaluate","params":{"s1":0.4,"s2":1}}|}
    "missing required parameter";
  reject "bad replicas"
    {|{"route":"evaluate","params":{"w":1,"s1":0.4,"s2":1,"replicas":-2}}|}
    "non-negative integer";
  reject "params not object" {|{"route":"optimize","params":3}|}
    "must be an object"

let test_protocol_fingerprint () =
  let request label line =
    match decode_request label line with
    | Ok r -> r
    | Error reason -> Alcotest.failf "%s: rejected: %s" label reason
  in
  let a = request "a" {|{"route":"optimize","params":{"rho":3}}|} in
  (* Different spelling, same query: explicit defaults, case-folded
     config, float-typed rho, an id — all normalize away. *)
  let b =
    request "b"
      {|{"id":9,"route":"optimize","params":{"config":"HERA/xscale","rho":3.0,"single_speed":false}}|}
  in
  let c = request "c" {|{"route":"optimize","params":{"rho":3.25}}|} in
  Alcotest.(check string)
    "equivalent requests share a fingerprint"
    (Server.Protocol.fingerprint a)
    (Server.Protocol.fingerprint b);
  Alcotest.(check bool)
    "distinct rho, distinct fingerprint" false
    (Server.Protocol.fingerprint a = Server.Protocol.fingerprint c);
  Alcotest.(check string)
    "fingerprint is FNV-1a of the canonical form"
    (Resilience.Checksum.hex_of_string (Server.Protocol.canonical a))
    (Server.Protocol.fingerprint a);
  Alcotest.(check string)
    "canonical form is journal-style"
    "optimize config=Hera/XScale rho=3 mode=two-speeds"
    (Server.Protocol.canonical a);
  Alcotest.(check bool)
    "solver routes cacheable" true
    (Server.Protocol.cacheable a);
  Alcotest.(check bool)
    "stats is live" false
    (Server.Protocol.cacheable Server.Protocol.Stats)

(* The canonical text as [Printf] wrote it before it moved to a
   buffer: fingerprints, cache keys and shard owners all hash it. *)
let printf_canonical = function
  | Server.Protocol.Optimize { config; rho; single_speed } ->
      Printf.sprintf "optimize config=%s rho=%.17g mode=%s"
        (Platforms.Config.name config)
        rho
        (if single_speed then "single-speed" else "two-speeds")
  | Server.Protocol.Frontier { config } ->
      Printf.sprintf "frontier config=%s" (Platforms.Config.name config)
  | Server.Protocol.Evaluate { config; w; sigma1; sigma2; replicas } ->
      Printf.sprintf "evaluate config=%s w=%.17g s1=%.17g s2=%.17g replicas=%d"
        (Platforms.Config.name config)
        w sigma1 sigma2 replicas
  | Server.Protocol.Health -> "health"
  | Server.Protocol.Stats -> "stats"

let test_fingerprint_printf_reference () =
  let rng = Prng.Rng.create ~seed:118 in
  let configs = Array.of_list Platforms.Config.all in
  let bits () =
    Int64.logor
      (Int64.shift_left (Int64.of_int (Prng.Rng.int rng ~bound:(1 lsl 32))) 32)
      (Int64.of_int (Prng.Rng.int rng ~bound:(1 lsl 32)))
  in
  (* Integers, subnormals, huge and tiny magnitudes, values "%.17g"
     prints in exponent form, the benchmark's six-decimal bounds, and
     arbitrary bit patterns (signs, zeros, infinities and NaNs
     included). *)
  let special =
    [|
      1.; 3.; 1e300; 1e-300; 5e-324; 2.2250738585072009e-308; Float.max_float;
      1e-5; 1.5e-7; 1e16; 1e17; 123456789012345678.; 0.1; 1e21; 0.;
    |]
  in
  let value () =
    match Prng.Rng.int rng ~bound:7 with
    | 0 -> float_of_int (Prng.Rng.int rng ~bound:1_000_000)
    | 1 -> Prng.Rng.pick rng special
    | 2 ->
        (* Subnormal: a zero exponent field under a non-zero mantissa. *)
        Int64.float_of_bits
          (Int64.of_int (1 + Prng.Rng.int rng ~bound:((1 lsl 52) - 1)))
    | 3 -> 10. ** Prng.Rng.uniform rng ~lo:(-30.) ~hi:30.
    | 4 ->
        float_of_string
          (Printf.sprintf "%.6f" (Prng.Rng.uniform rng ~lo:0.5 ~hi:5.))
    | 5 -> Prng.Rng.uniform rng ~lo:0. ~hi:1e6
    | _ -> Int64.float_of_bits (bits ())
  in
  let mismatches = ref 0 in
  for i = 1 to 100_000 do
    let config = Prng.Rng.pick rng configs in
    let request =
      match i mod 3 with
      | 0 ->
          Server.Protocol.Optimize
            {
              config;
              rho = value ();
              single_speed = Prng.Rng.bernoulli rng ~p:0.5;
            }
      | 1 -> Server.Protocol.Frontier { config }
      | _ ->
          Server.Protocol.Evaluate
            {
              config;
              w = value ();
              sigma1 = value ();
              sigma2 = value ();
              replicas = Prng.Rng.int rng ~bound:100_000;
            }
    in
    let want = printf_canonical request in
    if
      not
        (String.equal (Server.Protocol.canonical request) want
        && String.equal
             (Server.Protocol.fingerprint request)
             (Resilience.Checksum.hex_of_string want))
    then begin
      incr mismatches;
      if !mismatches <= 5 then Printf.eprintf "canonical mismatch: %S\n" want
    end
  done;
  Alcotest.(check int) "fingerprints off the Printf text" 0 !mismatches

(* Every key of the benchmark's hot working set, for a spread of
   seeds, keeps the shard its Printf-era fingerprint was owned by. *)
let test_hot_keys_keep_shards () =
  let maps =
    List.map (fun shards -> Server.Shard_map.create ~shards) [ 2; 3; 4 ]
  in
  List.iter
    (fun seed ->
      let hot = Perfbench.Gen.hot ~seed ~round:0 in
      for k = 0 to Perfbench.Gen.hot_keys - 1 do
        let line = Perfbench.Gen.hot_line hot ~id:k k in
        let request =
          match
            Server.Protocol.parse (expect_ok line (Server.Json.decode line))
          with
          | Ok r -> r
          | Error reason -> Alcotest.failf "%s: %s" line reason
        in
        let before =
          Resilience.Checksum.hex_of_string (printf_canonical request)
        in
        List.iter
          (fun map ->
            if
              Server.Shard_map.lookup map (Server.Protocol.fingerprint request)
              <> Server.Shard_map.lookup map before
            then
              Alcotest.failf "seed %d: %s moved to another of %d shards"
                seed line
                (Server.Shard_map.shards map))
          maps
      done)
    (List.init 20 (fun i -> i + 1)
    @ [ 71; 72; 73; 74; 81; 82; 83; 91; 92; 93; 101; 102; 103 ])

(* ------------------------------------------------------------------ *)
(* Render                                                              *)

let test_render () =
  let env = Testutil.hera_xscale () in
  let r = Server.Render.optimize ~env ~name:"Hera/XScale" ~rho:3. () in
  Alcotest.(check bool) "optimize feasible" true r.ok;
  List.iter
    (fun fragment ->
      if not (contains ~affix:fragment r.output) then
        Alcotest.failf "optimize output lacks %S" fragment)
    [
      "configuration: Hera/XScale"; "best pair:"; "saving vs best single speed:";
    ];
  let r' = Server.Render.optimize ~env ~name:"Hera/XScale" ~rho:3. () in
  Alcotest.(check string) "rendering is deterministic" r.output r'.output;
  let single =
    Server.Render.optimize ~mode:Core.Bicrit.Single_speed ~env
      ~name:"Hera/XScale" ~rho:3. ()
  in
  Alcotest.(check bool)
    "single-speed omits the saving line" false
    (contains ~affix:"saving vs best single speed" single.output);
  let infeasible =
    Server.Render.optimize ~env ~name:"Hera/XScale" ~rho:0.5 ()
  in
  Alcotest.(check bool) "infeasible bound flagged" false infeasible.ok;
  Alcotest.(check bool)
    "infeasible output explains" true
    (contains ~affix:"no feasible speed pair" infeasible.output)

(* The bytes of every [optimize] rendering and of its JSON string,
   pinned by digest: the eight built-in configurations at 201 bounds
   from 0.8 (infeasible everywhere) to 4.8, in both modes. The
   literals were taken from the Printf-based renderer; the
   buffer-direct one must reproduce them byte for byte. *)
let test_render_digest () =
  let outputs = Buffer.create (1 lsl 23) in
  let encoded = Buffer.create (1 lsl 23) in
  List.iter
    (fun config ->
      let env = Core.Env.of_config config in
      let name = Platforms.Config.name config in
      for i = 0 to 200 do
        let rho = 0.8 +. (0.02 *. float_of_int i) in
        List.iter
          (fun mode ->
            let r = Server.Render.optimize ~mode ~env ~name ~rho () in
            Buffer.add_char outputs (if r.ok then '+' else '-');
            Buffer.add_string outputs r.output;
            Buffer.add_string encoded
              (Server.Json.encode (Server.Json.String r.output)))
          [ Core.Bicrit.Two_speeds; Core.Bicrit.Single_speed ]
      done)
    Platforms.Config.all;
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check string)
    "Render.optimize digest" "b987641ea077d0dd64b08a2add5e800a" (md5 outputs);
  Alcotest.(check string)
    "Json.encode digest" "fc1cddbd56d54daa118a5139bb3668c0" (md5 encoded)

(* ------------------------------------------------------------------ *)
(* End to end over a Unix socket                                       *)

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let read_line_fd fd =
  let buffer = Buffer.create 1024 in
  let chunk = Bytes.create 1 in
  let rec loop () =
    match Unix.read fd chunk 0 1 with
    | 0 -> Alcotest.fail "connection closed before a full response line"
    | _ ->
        if Bytes.get chunk 0 = '\n' then Buffer.contents buffer
        else begin
          Buffer.add_char buffer (Bytes.get chunk 0);
          loop ()
        end
  in
  loop ()

let rpc fd line =
  write_all fd (line ^ "\n");
  expect_ok "response" (Server.Json.decode (read_line_fd fd))

let member_exn label key json =
  match Server.Json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "%s: response lacks %S" label key

(* The daemon binds the socket asynchronously; retry with a fresh
   client socket until it accepts. *)
let rec connect_retry socket_path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0
    ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect_retry socket_path (tries - 1)

let test_daemon_end_to_end () =
  let dir = Filename.temp_file "rexspeed-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  let options =
    {
      Server.Daemon.default_options with
      socket_path = Some socket_path;
      cache_entries = 8;
      max_request_bytes = 4096;
    }
  in
  let pool = Parallel.Pool.create ~domains:2 in
  let stop = Atomic.make false in
  let daemon = Domain.spawn (fun () -> Server.Daemon.run ~pool ~stop options) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (match Domain.join daemon with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon failed: %s" e);
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let fd = connect_retry socket_path 100 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let health = rpc fd {|{"route":"health","id":1}|} in
  Alcotest.(check (option string))
    "health ok" (Some "ok")
    (Option.bind (Server.Json.member "status" health) Server.Json.to_string_opt);
  (* An optimize answer must byte-match the shared renderer (and hence
     the one-shot CLI); asking twice must hit the cache with identical
     bytes. *)
  let ask () =
    let response = rpc fd {|{"route":"optimize","id":2,"params":{"rho":3}}|} in
    let output =
      match
        Server.Json.to_string_opt (member_exn "optimize" "output" response)
      with
      | Some s -> s
      | None -> Alcotest.fail "output is not a string"
    in
    let cached =
      match
        Server.Json.to_bool_opt (member_exn "optimize" "cached" response)
      with
      | Some b -> b
      | None -> Alcotest.fail "cached is not a boolean"
    in
    (output, cached)
  in
  let first, first_cached = ask () in
  let second, second_cached = ask () in
  let reference =
    Server.Render.optimize
      ~env:(Testutil.hera_xscale ())
      ~name:"Hera/XScale" ~rho:3. ()
  in
  Alcotest.(check bool) "first is a miss" false first_cached;
  Alcotest.(check bool) "second is a hit" true second_cached;
  Alcotest.(check string) "served = rendered" reference.output first;
  Alcotest.(check string) "hit = miss bytes" first second;
  (* Malformed input answers with a structured error, then the
     connection keeps serving. *)
  let bad = rpc fd "{broken" in
  Alcotest.(check (option string))
    "malformed is an error" (Some "error")
    (Option.bind (Server.Json.member "status" bad) Server.Json.to_string_opt);
  Alcotest.(check bool)
    "parse error code" true
    (Option.bind (Server.Json.member "error" bad) (Server.Json.member "code")
    = Some (Server.Json.String "parse"));
  let oversize = rpc fd (String.make 5000 ' ' ^ "{}") in
  Alcotest.(check bool)
    "oversize line rejected" true
    (Option.bind (Server.Json.member "error" oversize)
       (Server.Json.member "code")
    = Some (Server.Json.String "too-large"));
  (* Stats reflect the traffic: a non-zero hit rate after the repeat
     query, and the version single-sourced with the CLI's. *)
  let stats = rpc fd {|{"route":"stats","id":3}|} in
  let result = member_exn "stats" "result" stats in
  let cache = member_exn "stats" "cache" result in
  let hits =
    Option.bind (Server.Json.member "hits" cache) Server.Json.to_int_opt
  in
  Alcotest.(check (option int)) "one cache hit" (Some 1) hits;
  Alcotest.(check (option int))
    "one cache miss" (Some 1)
    (Option.bind (Server.Json.member "misses" cache) Server.Json.to_int_opt);
  (match
     Option.bind (Server.Json.member "hit_rate" cache) Server.Json.to_float_opt
   with
  | Some rate -> Alcotest.(check bool) "hit rate positive" true (rate > 0.)
  | None -> Alcotest.fail "hit_rate missing");
  (match
     Option.bind (Server.Json.member "version" result) Server.Json.to_string_opt
   with
  | Some v ->
      Alcotest.(check string)
        "stats version single-sourced" Server.Version.current v
  | None -> Alcotest.fail "stats version missing");
  (* Latency runs from admission to the last byte written, so even a
     cache hit takes time: the optimize route's minimum is positive. *)
  let optimize =
    match member_exn "stats" "routes" result with
    | Server.Json.List routes -> (
        match
          List.find_opt
            (fun r ->
              Server.Json.member "route" r
              = Some (Server.Json.String "optimize"))
            routes
        with
        | Some r -> r
        | None -> Alcotest.fail "stats lacks the optimize route")
    | _ -> Alcotest.fail "stats routes is not a list"
  in
  (match
     Option.bind
       (Server.Json.member "min" (member_exn "stats" "latency_ms" optimize))
       Server.Json.to_float_opt
   with
  | Some ms -> Alcotest.(check bool) "hit latency positive" true (ms > 0.)
  | None -> Alcotest.fail "optimize latency_ms.min missing");
  (* A client that sends a request and hangs up before the answer is
     written must be accounted as an error, not a success: the daemon
     records [ok && wrote]. The write can race the close, so provoke
     until the errors counter moves. *)
  let total_errors () =
    let stats = rpc fd {|{"route":"stats","id":11}|} in
    let result = member_exn "stats" "result" stats in
    match Server.Json.to_int_opt (member_exn "stats" "errors" result) with
    | Some n -> n
    | None -> Alcotest.fail "stats errors missing"
  in
  let before = total_errors () in
  let provoke () =
    let dead = connect_retry socket_path 100 in
    write_all dead "{\"route\":\"health\",\"id\":12}\n";
    Unix.close dead
  in
  let rec await_error tries =
    if tries = 0 then
      Alcotest.fail "dead-client response never recorded as an error"
    else begin
      provoke ();
      Unix.sleepf 0.05;
      if total_errors () <= before then await_error (tries - 1)
    end
  in
  await_error 50

(* ------------------------------------------------------------------ *)
(* Hardened serving                                                    *)

(* Spawn a daemon on a fresh Unix socket, run [f socket_path] against
   it, then set its [stop] flag and join. [f] connects (and reconnects)
   itself. *)
let with_daemon ?(domains = 1) ?(stop = Atomic.make false) options f =
  let dir = Filename.temp_file "rexspeed-hardened" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  let options = { options with Server.Daemon.socket_path = Some socket_path } in
  let pool = Parallel.Pool.create ~domains in
  let daemon = Domain.spawn (fun () -> Server.Daemon.run ~pool ~stop options) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (match Domain.join daemon with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon failed: %s" e);
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () -> f socket_path

let with_client socket_path f =
  let fd = connect_retry socket_path 100 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () -> f fd

let error_code response =
  Option.bind (Server.Json.member "error" response) (fun e ->
      Option.bind (Server.Json.member "code" e) Server.Json.to_string_opt)

let response_id response =
  Option.bind (Server.Json.member "id" response) Server.Json.to_int_opt

(* Read [n] responses (possibly out of request order — shed answers
   are written immediately) and key them by id. *)
let read_responses fd n =
  List.init n (fun _ ->
      let response = expect_ok "response" (Server.Json.decode (read_line_fd fd)) in
      match response_id response with
      | Some id -> (id, response)
      | None -> Alcotest.fail "response lacks an integer id")

let hardening_counter stats path =
  let rec follow json = function
    | [] -> Server.Json.to_int_opt json
    | key :: rest -> (
        match Server.Json.member key json with
        | Some v -> follow v rest
        | None -> None)
  in
  match follow stats ("result" :: "hardening" :: path) with
  | Some n -> n
  | None ->
      Alcotest.failf "stats lacks hardening counter %s"
        (String.concat "." path)

(* Lines off a socket, read a chunk at a time: a test that reads
   hundreds of answers cannot afford [read_line_fd]'s read per byte. *)
type line_reader = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let line_reader fd =
  { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

(* The next line, with its newline. *)
let rec next_line r =
  let data = Buffer.contents r.pending in
  match String.index_opt data '\n' with
  | Some i ->
      Buffer.clear r.pending;
      Buffer.add_substring r.pending data (i + 1) (String.length data - i - 1);
      String.sub data 0 (i + 1)
  | None ->
      (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> Alcotest.fail "connection closed before a full response line"
      | n -> Buffer.add_subbytes r.pending r.chunk 0 n);
      next_line r

let test_daemon_hit_bytes () =
  (* The bytes a hit writes are those [Json.encode_line] writes for the
     whole "cached":true answer, and a miss writes the "cached":false
     one, for every kind of id: a hit puts its own id before bytes the
     cache keeps without one, so an id holding commas, or a "cached"
     member of its own, must change nothing after it. *)
  let open Server.Json in
  let ids =
    [
      Int 7; Int (-42); Float 2.5; String "q\"u\\o\nte\001 \xc3\xa9"; Null;
      List [ Int 1; List [ Int 2; Obj [ ("z", Bool true) ] ] ];
      Obj
        [
          ("k", List [ Int 1; Int 2; Obj [ ("z", Bool true) ] ]);
          ("cached", Bool false);
          ("s", String "a,b");
        ];
    ]
  in
  let queries =
    List.concat_map
      (fun config ->
        let env = Core.Env.of_config config in
        let name = Platforms.Config.name config in
        let optimize =
          List.concat_map
            (fun rho ->
              List.map
                (fun (mode, single) ->
                  ( "optimize",
                    [
                      ("config", String name);
                      ("rho", Float rho);
                      ("single_speed", Bool single);
                    ],
                    fun () -> Server.Render.optimize ~mode ~env ~name ~rho () ))
                [
                  (Core.Bicrit.Two_speeds, false);
                  (Core.Bicrit.Single_speed, true);
                ])
            [ 0.8; 1.16; 1.5; 2.25; 3.; 4.8 ]
        in
        ( "frontier",
          [ ("config", String name) ],
          fun () -> Server.Render.frontier ~env ~name () )
        :: ( "evaluate",
             [
               ("config", String name);
               ("w", Float 2764.);
               ("s1", Float 0.4);
               ("s2", Float 1.);
             ],
             fun () ->
               Server.Render.evaluate ~env ~w:2764. ~sigma1:0.4 ~sigma2:1.
                 ~replicas:0 () )
        :: optimize)
      Platforms.Config.all
  in
  let answer ~id ~route ~fingerprint ~cached (r : Server.Render.rendering) =
    encode_line
      (Obj
         [
           ("id", id);
           ("status", String "ok");
           ("route", String route);
           ("fingerprint", String fingerprint);
           ("cached", Bool cached);
           ("exit", Int (if r.ok then 0 else 1));
           ("output", String r.output);
         ])
  in
  with_daemon Server.Daemon.default_options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  let reader = line_reader fd in
  let mismatches = ref 0 and answers = ref 0 in
  let check label want got =
    incr answers;
    if not (String.equal want got) then begin
      incr mismatches;
      if !mismatches <= 3 then
        Printf.eprintf "%s:\n  want %S\n  got  %S\n" label want got
    end
  in
  List.iteri
    (fun q (route, params, render) ->
      let request id =
        encode_line
          (Obj
             [ ("route", String route); ("id", id); ("params", Obj params) ])
      in
      let fingerprint =
        match
          Server.Protocol.parse (expect_ok route (decode (request Null)))
        with
        | Ok r -> Server.Protocol.fingerprint r
        | Error reason -> Alcotest.failf "%s: %s" route reason
      in
      let rendering = render () in
      (* The miss alone: requests classified in its batch would miss too. *)
      let miss_id = List.nth ids (q mod List.length ids) in
      write_all fd (request miss_id);
      check ("miss " ^ fingerprint)
        (answer ~id:miss_id ~route ~fingerprint ~cached:false rendering)
        (next_line reader);
      write_all fd (String.concat "" (List.map request ids));
      List.iter
        (fun id ->
          check ("hit " ^ fingerprint)
            (answer ~id ~route ~fingerprint ~cached:true rendering)
            (next_line reader))
        ids)
    queries;
  Alcotest.(check int)
    (Printf.sprintf "answers unlike Json.encode_line's, of %d" !answers)
    0 !mismatches

let test_daemon_deadline () =
  (* With a 1 ms deadline and one inflight slot, a cheap request
     queued behind a slow Monte-Carlo evaluation must expire before
     dispatch and answer [deadline_exceeded]. *)
  let options =
    {
      Server.Daemon.default_options with
      max_inflight = 1;
      deadline_ms = 1;
    }
  in
  with_daemon options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  write_all fd
    ({|{"route":"evaluate","id":1,"params":{"w":2764,"s1":0.4,"s2":1,"replicas":500}}|}
   ^ "\n"
   ^ {|{"route":"optimize","id":2,"params":{"rho":3}}|}
   ^ "\n");
  let responses = read_responses fd 2 in
  let second = List.assoc 2 responses in
  Alcotest.(check (option string))
    "queued request expired" (Some "deadline_exceeded") (error_code second);
  (match
     Option.bind (Server.Json.member "error" second)
       (Server.Json.member "elapsed_ms")
   with
  | Some (Server.Json.Int _) -> ()
  | _ -> Alcotest.fail "deadline error lacks elapsed_ms");
  (* The counter counts exactly the expired answers: the evaluate may
     expire while computing too. *)
  let expired =
    List.length
      (List.filter
         (fun (_, r) -> error_code r = Some "deadline_exceeded")
         responses)
  in
  let stats = rpc fd {|{"route":"stats","id":3}|} in
  Alcotest.(check int) "deadline counter = expired answers" expired
    (hardening_counter stats [ "deadline_exceeded" ])

let test_daemon_shedding () =
  (* A bounded queue of one with one inflight slot: a pipelined burst
     must shed everything beyond the first admitted request, each shed
     carrying a retry hint, and the stats counter must account for
     them. *)
  let options =
    {
      Server.Daemon.default_options with
      max_inflight = 1;
      max_queue = 1;
    }
  in
  with_daemon options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  let burst = 6 in
  let lines =
    List.init burst (fun i ->
        Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":3}}|}
          (i + 1))
  in
  write_all fd (String.concat "\n" lines ^ "\n");
  let responses = read_responses fd burst in
  let sheds =
    List.filter (fun (_, r) -> error_code r = Some "shed") responses
  in
  let ok =
    List.filter
      (fun (_, r) ->
        Option.bind (Server.Json.member "status" r) Server.Json.to_string_opt
        = Some "ok")
      responses
  in
  Alcotest.(check bool) "burst produced sheds" true (sheds <> []);
  Alcotest.(check bool) "burst produced answers" true (ok <> []);
  Alcotest.(check int) "every response accounted" burst
    (List.length sheds + List.length ok);
  List.iter
    (fun (id, r) ->
      match
        Option.bind (Server.Json.member "error" r)
          (fun e ->
            Option.bind (Server.Json.member "retry_after_ms" e)
              Server.Json.to_int_opt)
      with
      | Some ms ->
          Alcotest.(check bool)
            (Printf.sprintf "shed %d retry hint positive" id)
            true (ms >= 50)
      | None -> Alcotest.failf "shed %d lacks retry_after_ms" id)
    sheds;
  let stats = rpc fd {|{"route":"stats","id":99}|} in
  Alcotest.(check int) "stats shed counter" (List.length sheds)
    (hardening_counter stats [ "shed" ])

let test_daemon_verify_divergence () =
  (* Corrupt-bit chaos plus verify-sample 1: every computed miss is
     re-executed, each injected corruption is detected as a divergence
     and the committed bytes still match the shared renderer — proof
     that no corrupted response was ever shipped. *)
  let io_cfg =
    {
      Resilience.Chaos.default_io_config with
      corrupt_p = 0.75;
      io_seed = 1302;
    }
  in
  let requests = 8 in
  (* The injector is pure in (seed, kind, ordinal), so the number of
     divergences the daemon must detect is computable up front. *)
  let expected_divergences =
    List.length
      (List.filter
         (fun i ->
           Resilience.Chaos.io_fires io_cfg Resilience.Chaos.Corrupt ~index:i
             ~attempt:0)
         (List.init requests Fun.id))
  in
  Alcotest.(check bool) "seed injects at least one corruption" true
    (expected_divergences > 0);
  Fun.protect ~finally:Resilience.Chaos.disable_io @@ fun () ->
  (match Resilience.Chaos.configure_io io_cfg with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure_io: %s" e);
  let options =
    { Server.Daemon.default_options with verify_sample = 1 }
  in
  with_daemon options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  let env = Testutil.hera_xscale () in
  for i = 0 to requests - 1 do
    let rho = 2. +. (float_of_int i /. 8.) in
    let response =
      rpc fd
        (Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":%g}}|} i
           rho)
    in
    let output =
      match
        Server.Json.to_string_opt (member_exn "optimize" "output" response)
      with
      | Some s -> s
      | None -> Alcotest.fail "output is not a string"
    in
    let reference =
      Server.Render.optimize ~env ~name:"Hera/XScale" ~rho ()
    in
    Alcotest.(check string)
      (Printf.sprintf "request %d committed clean bytes" i)
      reference.output output
  done;
  let stats = rpc fd {|{"route":"stats","id":99}|} in
  Alcotest.(check int) "every miss verified" requests
    (hardening_counter stats [ "verify"; "checks" ]);
  Alcotest.(check int) "every corruption detected" expected_divergences
    (hardening_counter stats [ "verify"; "divergences" ])

let test_daemon_io_timeout () =
  (* A client that stalls mid-request (bytes pending, no newline) past
     --io-timeout-ms must be disconnected and counted, and the daemon
     must keep serving other connections. *)
  let options =
    { Server.Daemon.default_options with io_timeout_ms = 100 }
  in
  with_daemon options @@ fun socket_path ->
  let stalled = connect_retry socket_path 100 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close stalled with Unix.Unix_error _ -> ())
  @@ fun () ->
  write_all stalled {|{"route":"health"|};
  (* Wait for the reaper: the stalled peer sees EOF (or a reset) once
     the daemon gives up on it. The select bounds the wait so a broken
     reaper fails the test instead of hanging it. *)
  (match Unix.select [ stalled ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "stalled connection never reaped"
  | _ :: _, _, _ -> (
      let buf = Bytes.create 1 in
      match Unix.read stalled buf 0 1 with
      | 0 -> ()
      | _ -> Alcotest.fail "unexpected bytes on a stalled connection"
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()));
  with_client socket_path @@ fun fd ->
  let stats = rpc fd {|{"route":"stats","id":1}|} in
  Alcotest.(check bool) "io timeout counted" true
    (hardening_counter stats [ "io_timeouts" ] >= 1)

let test_daemon_stalled_reader () =
  (* A client that pipelines hot requests and never reads fills its
     socket. The dispatcher must go on serving everyone else, not wait
     on that one peer for the whole --io-timeout-ms (default 30 s). *)
  with_daemon Server.Daemon.default_options @@ fun socket_path ->
  let stalled = connect_retry socket_path 100 in
  (* Closed exactly once: the daemon shares this process's fd table. *)
  let close_stalled =
    lazy (try Unix.close stalled with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally:(fun () -> Lazy.force close_stalled) @@ fun () ->
  let line = {|{"route":"optimize","id":1,"params":{"rho":3}}|} ^ "\n" in
  let payload = String.concat "" (List.init 20_000 (fun _ -> line)) in
  (* Write without blocking until the socket stays full for half a
     second (or the payload runs out). *)
  Unix.set_nonblock stalled;
  let rec fill off =
    match
      Unix.write_substring stalled payload off (String.length payload - off)
    with
    | n -> if off + n < String.length payload then fill (off + n) else off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ stalled ] [] 0.5 with
        | [], _, _ -> off
        | _ :: _, _, _ -> fill off)
  in
  let written = fill 0 in
  Alcotest.(check bool) "stalled client pipelined >= 4000 lines" true
    (written >= 4000 * String.length line);
  with_client socket_path (fun fd ->
      write_all fd ({|{"route":"health","id":2}|} ^ "\n");
      match Unix.select [ fd ] [] [] 2.0 with
      | [], _, _ -> Alcotest.fail "health waited on the stalled reader"
      | _ :: _, _, _ ->
          let health =
            expect_ok "health" (Server.Json.decode (read_line_fd fd))
          in
          Alcotest.(check (option int)) "health answered" (Some 2)
            (response_id health));
  Lazy.force close_stalled;
  with_client socket_path @@ fun fd ->
  let stats = rpc fd {|{"route":"stats","id":3}|} in
  Alcotest.(check (option string))
    "stats answers after the stalled client left" (Some "ok")
    (Option.bind (Server.Json.member "status" stats) Server.Json.to_string_opt)

let test_daemon_write_timeout () =
  (* A client that never reads is dropped once its oldest unwritten
     answer is older than --io-timeout-ms: the drop counts as an I/O
     timeout, the unwritten answers as failed requests. *)
  let options = { Server.Daemon.default_options with io_timeout_ms = 200 } in
  with_daemon options @@ fun socket_path ->
  let stalled = connect_retry socket_path 100 in
  Fun.protect
    ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
  @@ fun () ->
  let line = {|{"route":"optimize","id":1,"params":{"rho":3}}|} ^ "\n" in
  (* ~50 KB of requests fit in the socket; ~2 MB of answers do not. *)
  write_all stalled (String.concat "" (List.init 1000 (fun _ -> line)));
  let counters () =
    with_client socket_path @@ fun fd ->
    let stats = rpc fd {|{"route":"stats","id":2}|} in
    match
      Option.bind (Server.Json.member "result" stats) (fun r ->
          Option.bind (Server.Json.member "errors" r) Server.Json.to_int_opt)
    with
    | Some errors -> (hardening_counter stats [ "io_timeouts" ], errors)
    | None -> Alcotest.fail "stats lacks errors"
  in
  let rec await tries =
    let timeouts, errors = counters () in
    if timeouts >= 1 then errors
    else if tries = 0 then Alcotest.fail "stalled reader never dropped"
    else begin
      Unix.sleepf 0.1;
      await (tries - 1)
    end
  in
  Alcotest.(check bool) "unwritten answers recorded as failed" true
    (await 50 > 0);
  (* The dropped peer reads what was written, then EOF (or a reset). *)
  let chunk = Bytes.create 65536 in
  let rec to_eof () =
    match Unix.select [ stalled ] [] [] 5.0 with
    | [], _, _ -> Alcotest.fail "dropped connection never closed"
    | _ :: _, _, _ -> (
        match Unix.read stalled chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | _ -> to_eof ()
        | exception Unix.Unix_error (ECONNRESET, _, _) -> ())
  in
  to_eof ()

let test_daemon_drain_burst () =
  (* Shutdown-vs-inflight race: a burst accepted just before [stop]
     must be answered in full by the drain, including requests still
     queued and never dispatched when the stop lands. *)
  let options =
    { Server.Daemon.default_options with max_inflight = 2 }
  in
  let stop = Atomic.make false in
  with_daemon ~stop options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  (* A first round trip guarantees the daemon has accepted this
     connection before the burst races the stop. *)
  ignore (rpc fd {|{"route":"health","id":0}|} : Server.Json.t);
  let burst = 10 in
  let lines =
    List.init burst (fun i ->
        Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":%g}}|}
          (i + 1)
          (2. +. (float_of_int i /. 16.)))
  in
  write_all fd (String.concat "\n" lines ^ "\n");
  Atomic.set stop true;
  let responses = read_responses fd burst in
  Alcotest.(check int) "drain answered the whole burst" burst
    (List.length responses);
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d answered ok" (i + 1))
        true
        (Option.bind
           (Server.Json.member "status" (List.assoc (i + 1) responses))
           Server.Json.to_string_opt
        = Some "ok"))
    lines

let health_status fd id =
  Option.bind
    (Server.Json.member "status"
       (rpc fd (Printf.sprintf {|{"route":"health","id":%d}|} id)))
    Server.Json.to_string_opt

let test_daemon_stop_is_per_run () =
  (* Two daemons in one process, each with its own flag: stopping one
     drains that one alone, and the other keeps answering, with SIGPIPE
     still ignored: a peer that vanishes with answers owed must not
     kill the process. *)
  let stop_first = Atomic.make false in
  with_daemon ~stop:stop_first Server.Daemon.default_options
  @@ fun first_path ->
  with_daemon Server.Daemon.default_options @@ fun second_path ->
  with_client second_path @@ fun second ->
  Alcotest.(check (option string))
    "second daemon serving" (Some "ok") (health_status second 1);
  with_client first_path (fun first ->
      Alcotest.(check (option string))
        "first daemon serving" (Some "ok") (health_status first 1));
  Atomic.set stop_first true;
  (* A drained daemon unlinks its socket on the way out. *)
  let rec await_exit tries =
    if Sys.file_exists first_path && tries > 0 then begin
      Unix.sleepf 0.01;
      await_exit (tries - 1)
    end
  in
  await_exit 1000;
  Alcotest.(check bool) "first daemon drained" false
    (Sys.file_exists first_path);
  (* About 700 KB of answers: more than the socket holds, so the second
     daemon is still writing when this peer closes. *)
  with_client second_path (fun gone ->
      write_all gone
        (String.concat ""
           (List.init 400 (fun _ ->
                {|{"route":"optimize","params":{"rho":3}}|} ^ "\n"))));
  Unix.sleepf 0.3;
  Alcotest.(check (option string))
    "second daemon still answers" (Some "ok") (health_status second 2)

let test_daemon_stop_before_run () =
  (* A flag set before [run] is not lost: the daemon binds, drains what
     it has (nothing) and returns. Bounded, so a run that ignored the
     flag fails here instead of hanging the suite. *)
  let dir = Filename.temp_file "rexspeed-prestop" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  Fun.protect ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ready = Atomic.make false and finished = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        let served =
          Server.Daemon.run ~pool:Parallel.Pool.sequential
            ~on_ready:(fun () -> Atomic.set ready true)
            ~stop:(Atomic.make true)
            { Server.Daemon.default_options with socket_path = Some socket_path }
        in
        Atomic.set finished true;
        served)
  in
  let rec await tries =
    if (not (Atomic.get finished)) && tries > 0 then begin
      Unix.sleepf 0.01;
      await (tries - 1)
    end
  in
  await 1000;
  Alcotest.(check bool) "run returned" true (Atomic.get finished);
  (match Domain.join daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon failed: %s" e);
  Alcotest.(check bool) "listeners were bound first" true (Atomic.get ready);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path)

let test_daemon_stale_socket () =
  (* A leftover socket file from a crashed daemon must be detected as
     stale (nothing accepts on it) and replaced; the socket of a live
     daemon must be refused. *)
  let dir = Filename.temp_file "rexspeed-stale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Fabricate the crash leftover: bind and listen, then close the
     listener without unlinking. *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket_path);
  Unix.listen stale 1;
  Unix.close stale;
  Alcotest.(check bool) "leftover file exists" true (Sys.file_exists socket_path);
  let options =
    { Server.Daemon.default_options with socket_path = Some socket_path }
  in
  let pool = Parallel.Pool.create ~domains:1 in
  let stop = Atomic.make false in
  let daemon = Domain.spawn (fun () -> Server.Daemon.run ~pool ~stop options) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      match Domain.join daemon with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon failed: %s" e)
  @@ fun () ->
  with_client socket_path @@ fun fd ->
  let health = rpc fd {|{"route":"health","id":1}|} in
  Alcotest.(check (option string))
    "stale socket reclaimed, daemon serving" (Some "ok")
    (Option.bind (Server.Json.member "status" health) Server.Json.to_string_opt);
  (* The same path now belongs to a live daemon: a second daemon must
     refuse it instead of stealing the socket. *)
  let second =
    Domain.spawn (fun () ->
        Server.Daemon.run ~pool ~stop:(Atomic.make false) options)
  in
  (match Domain.join second with
  | Ok () -> Alcotest.fail "second daemon must not bind a live socket"
  | Error e ->
      Alcotest.(check bool)
        "refusal names the live daemon" true
        (contains ~affix:"live daemon" e));
  (* The refused daemon must not have unlinked the live socket. *)
  let again = rpc fd {|{"route":"health","id":2}|} in
  Alcotest.(check (option string))
    "first daemon still serving" (Some "ok")
    (Option.bind (Server.Json.member "status" again) Server.Json.to_string_opt)

let test_daemon_health_hardening () =
  (* The extended health route: readiness, queue depth and every
     hardening counter, plus worker liveness. *)
  let options =
    { Server.Daemon.default_options with max_queue = 4 }
  in
  with_daemon ~domains:2 options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  let health = rpc fd {|{"route":"health","id":1}|} in
  let result = member_exn "health" "result" health in
  Alcotest.(check (option bool))
    "ready under an empty queue" (Some true)
    (Option.bind (Server.Json.member "ready" result) Server.Json.to_bool_opt);
  List.iter
    (fun key ->
      match
        Option.bind (Server.Json.member key result) Server.Json.to_int_opt
      with
      | Some n ->
          Alcotest.(check bool) (key ^ " is a counter") true (n >= 0)
      | None -> Alcotest.failf "health lacks %s" key)
    [ "queue_depth"; "shed"; "deadline_exceeded"; "io_timeouts" ];
  let workers = member_exn "health" "workers" result in
  Alcotest.(check (option int))
    "worker domains reported" (Some 2)
    (Option.bind (Server.Json.member "domains" workers) Server.Json.to_int_opt);
  (match
     Option.bind (Server.Json.member "restarts" workers) Server.Json.to_int_opt
   with
  | Some n -> Alcotest.(check bool) "restarts non-negative" true (n >= 0)
  | None -> Alcotest.fail "health lacks workers.restarts");
  let verify = member_exn "health" "verify" result in
  Alcotest.(check (option int))
    "verification off by default" (Some 0)
    (Option.bind (Server.Json.member "checks" verify) Server.Json.to_int_opt)

(* One session's [health] and [stats] results as ordered key paths,
   every number masked: the reported fields, their order and every
   non-numeric value are pinned. *)
let masked_paths json =
  let rec walk prefix json acc =
    let leaf v = Printf.sprintf "%s = %s" prefix v :: acc in
    match (json : Server.Json.t) with
    | Obj members ->
        List.fold_left
          (fun acc (k, v) ->
            walk (if prefix = "" then k else prefix ^ "." ^ k) v acc)
          acc members
    | List items ->
        List.fold_left
          (fun (i, acc) v ->
            (i + 1, walk (Printf.sprintf "%s[%d]" prefix i) v acc))
          (0, acc) items
        |> snd
    | Int _ | Float _ -> leaf "#"
    | String s -> leaf s
    | Bool b -> leaf (string_of_bool b)
    | Null -> leaf "null"
  in
  List.rev (walk "" json [])

let test_daemon_telemetry_shape () =
  with_daemon Server.Daemon.default_options @@ fun socket_path ->
  with_client socket_path @@ fun fd ->
  ignore (rpc fd {|{"route":"optimize","id":1,"params":{"rho":3}}|});
  ignore (rpc fd {|{"route":"optimize","id":2,"params":{"rho":3}}|});
  ignore (rpc fd "{broken");
  let health = rpc fd {|{"route":"health","id":3}|} in
  let stats = rpc fd {|{"route":"stats","id":4}|} in
  let v = Server.Version.current in
  Alcotest.(check (list string))
    "health.result"
    [
      "status = serving";
      "version = " ^ v;
      "uptime_s = #";
      "ready = true";
      "queue_depth = #";
      "shed = #";
      "deadline_exceeded = #";
      "io_timeouts = #";
      "verify.checks = #";
      "verify.divergences = #";
      "workers.domains = #";
      "workers.restarts = #";
    ]
    (masked_paths (member_exn "health" "result" health));
  let route i name =
    List.map
      (fun line -> Printf.sprintf "routes[%d].%s" i line)
      [
        "route = " ^ name;
        "requests = #";
        "errors = #";
        "latency_ms.min = #";
        "latency_ms.mean = #";
        "latency_ms.max = #";
        "latency_ms.p99 = #";
      ]
  in
  Alcotest.(check (list string))
    "stats.result"
    ([
       "version = " ^ v;
       "uptime_s = #";
       "requests = #";
       "errors = #";
       "latency_ms.min = #";
       "latency_ms.mean = #";
       "latency_ms.max = #";
       "latency_ms.p99 = #";
     ]
    @ route 0 "health" @ route 1 "invalid" @ route 2 "optimize"
    @ [
        "cache.capacity = #";
        "cache.entries = #";
        "cache.hits = #";
        "cache.misses = #";
        "cache.hit_rate = #";
        "hardening.queue_depth = #";
        "hardening.shed = #";
        "hardening.deadline_exceeded = #";
        "hardening.io_timeouts = #";
        "hardening.verify.checks = #";
        "hardening.verify.divergences = #";
        "hardening.workers.domains = #";
        "hardening.workers.restarts = #";
      ])
    (masked_paths (member_exn "stats" "result" stats))

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

(* Realistic ring keys: FNV-1a fingerprints of optimize-style
   canonical request forms, exactly what the router hands to
   [Shard_map.lookup]. *)
let fingerprints n =
  List.init n (fun i ->
      Resilience.Checksum.hex_of_string
        (Printf.sprintf "optimize config=Hera/XScale rho=%d mode=two-speeds" i))

let test_shard_map_lookup () =
  Testutil.check_raises_invalid "zero shards rejected" (fun () ->
      ignore (Server.Shard_map.create ~shards:0));
  let keys = fingerprints 100 in
  List.iter
    (fun shards ->
      let map = Server.Shard_map.create ~shards in
      Alcotest.(check int) "shard count kept" shards
        (Server.Shard_map.shards map);
      (* A ring rebuilt from the same count must route identically:
         routing depends on nothing but the shard count. *)
      let rebuilt = Server.Shard_map.create ~shards in
      List.iter
        (fun key ->
          let owner = Server.Shard_map.lookup map key in
          Alcotest.(check bool) "owner in range" true
            (owner >= 0 && owner < shards);
          Alcotest.(check int) "deterministic across rings" owner
            (Server.Shard_map.lookup rebuilt key))
        keys)
    [ 1; 2; 3; 4; 8 ]

let test_shard_map_spread () =
  (* 64 virtual points per shard must keep the load roughly even: with
     10k distinct keys over 4 shards, no shard may starve below 5% of
     the keys (a plain modulo ring would pass too — the point is to
     catch a broken binary search or an unsigned-compare regression
     that funnels everything into one arc). *)
  let shards = 4 in
  let total = 10_000 in
  let map = Server.Shard_map.create ~shards in
  let counts = Server.Shard_map.spread map (fingerprints total) in
  Alcotest.(check int) "one bucket per shard" shards (Array.length counts);
  Alcotest.(check int) "every key counted" total
    (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun i count ->
      if count < total * 5 / 100 then
        Alcotest.failf "shard %d starves: %d of %d keys" i count total)
    counts

let test_shard_map_resize_stability () =
  (* The consistent-hashing contract the router's warm caches rely on:
     growing the fleet from n to n+1 shards only moves keys onto the
     new shard — every key the new shard does not steal keeps its old
     owner, because the existing shards' ring points are unchanged. *)
  let keys = fingerprints 2_000 in
  List.iter
    (fun shards ->
      let before = Server.Shard_map.create ~shards in
      let after = Server.Shard_map.create ~shards:(shards + 1) in
      let moved = ref 0 in
      List.iter
        (fun key ->
          let owner = Server.Shard_map.lookup after key in
          if owner = shards then incr moved
          else
            Alcotest.(check int)
              "key not stolen by the new shard keeps its owner"
              (Server.Shard_map.lookup before key)
              owner)
        keys;
      Alcotest.(check bool)
        (Printf.sprintf "growing %d->%d moves some keys but not all" shards
           (shards + 1))
        true
        (!moved > 0 && !moved < List.length keys))
    [ 1; 2; 3; 4; 7 ]

(* ------------------------------------------------------------------ *)
(* JSON codec fuzzing driven by the project PRNG                       *)

(* A second generator for the codec properties, independent of QCheck:
   values and mutations drawn from lib/prng's deterministic streams,
   so a failure replays bit-identically from the fixed seed. *)
let gen_json_string rng =
  String.init (Prng.Rng.int rng ~bound:13) (fun _ ->
      match Prng.Rng.int rng ~bound:10 with
      | 0 -> '"'
      | 1 -> '\\'
      | 2 -> Char.chr (Prng.Rng.int rng ~bound:32)
      | 3 -> Char.chr (128 + Prng.Rng.int rng ~bound:128)
      | _ -> Char.chr (32 + Prng.Rng.int rng ~bound:95))

let rec gen_json_value rng depth =
  if depth = 0 || Prng.Rng.bernoulli rng ~p:0.6 then
    match Prng.Rng.int rng ~bound:5 with
    | 0 -> Server.Json.Null
    | 1 -> Server.Json.Bool (Prng.Rng.bernoulli rng ~p:0.5)
    | 2 -> Server.Json.Int (Prng.Rng.int rng ~bound:2_000_001 - 1_000_000)
    | 3 -> Server.Json.Float (Prng.Rng.uniform rng ~lo:(-1e9) ~hi:1e9)
    | _ -> Server.Json.String (gen_json_string rng)
  else if Prng.Rng.bernoulli rng ~p:0.5 then
    Server.Json.List
      (List.init (Prng.Rng.int rng ~bound:5) (fun _ ->
           gen_json_value rng (depth - 1)))
  else
    Server.Json.Obj
      (List.init (Prng.Rng.int rng ~bound:5) (fun _ ->
           (gen_json_string rng, gen_json_value rng (depth - 1))))

let test_json_prng_roundtrip () =
  let rng = Prng.Rng.create ~seed:20160813 in
  for i = 1 to 500 do
    let v = gen_json_value rng 3 in
    let encoded = Server.Json.encode v in
    match Server.Json.decode encoded with
    | Ok v' ->
        if not (json_equal v v') then
          Alcotest.failf "iteration %d: decode(encode v) <> v on %s" i encoded
    | Error e ->
        Alcotest.failf "iteration %d: decode failed on %s: %s" i encoded
          (Server.Json.error_to_string e)
  done

let test_json_mutation_total () =
  (* Totality under corruption: flipping any single byte of a valid
     encoding must yield either a successful parse (the mutation kept
     the document well-formed) or a structured error whose position
     lies inside the input — never an exception. This is the adversary
     the daemon's request path actually faces: line noise, not
     well-formed JSON. *)
  let rng = Prng.Rng.create ~seed:1302 in
  for i = 1 to 300 do
    let v = gen_json_value rng 3 in
    let encoded = Server.Json.encode v in
    for _ = 1 to 8 do
      let pos = Prng.Rng.int rng ~bound:(String.length encoded) in
      let mutated = Bytes.of_string encoded in
      Bytes.set mutated pos (Char.chr (Prng.Rng.int rng ~bound:256));
      let mutated = Bytes.to_string mutated in
      match Server.Json.decode mutated with
      | Ok _ -> ()
      | Error e ->
          if e.position < 0 || e.position > String.length mutated then
            Alcotest.failf "iteration %d: error position %d outside %S" i
              e.position mutated
      | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
      | exception exn ->
          Alcotest.failf "iteration %d: decode raised %s on %S" i
            (Printexc.to_string exn) mutated
    done
  done

(* ------------------------------------------------------------------ *)
(* The cursor decoder against the closure decoder it replaced          *)

let rec non_finite = function
  | Server.Json.Float v -> not (Float.is_finite v)
  | Server.Json.List items -> List.exists non_finite items
  | Server.Json.Obj members -> List.exists (fun (_, v) -> non_finite v) members
  | Server.Json.Null | Server.Json.Bool _ | Server.Json.Int _
  | Server.Json.String _ ->
      false

(* The JSON number that starts at byte [p]. *)
let number_at s p =
  let n = String.length s in
  let rec digits i =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i
  in
  let i = digits (if p < n && s.[p] = '-' then p + 1 else p) in
  let i = if i < n && s.[i] = '.' then digits (i + 1) else i in
  let i =
    if i < n && (s.[i] = 'e' || s.[i] = 'E') then
      digits
        (if i + 1 < n && (s.[i + 1] = '+' || s.[i + 1] = '-') then i + 2
         else i + 1)
    else i
  in
  String.sub s p (i - p)

(* Both decoders return equal values or the same error, except on a
   number a double cannot hold: the reference decodes it to an
   infinite [Float] (or fails later in the input), the cursor decoder
   refuses it at its first byte. *)
let decoders_agree ?max_depth input =
  match
    ( Server.Json.decode ?max_depth input,
      Json_reference.decode ?max_depth input )
  with
  | Ok v, Ok v' -> json_equal v v'
  | Error { position; message = "number out of range" }, reference -> (
      (match Json_reference.decode (number_at input position) with
      | Ok (Server.Json.Float v) -> not (Float.is_finite v)
      | Ok _ | Error _ -> false)
      &&
      match reference with
      | Ok v -> non_finite v
      | Error e -> e.position > position)
  | Error e, Error e' ->
      e.position = e'.position && String.equal e.message e'.message
  | Ok _, Error _ | Error _, Ok _ -> false

let test_json_decoder_differential () =
  let checked = ref 0 and disagreements = ref 0 in
  let check ?max_depth input =
    incr checked;
    if not (decoders_agree ?max_depth input) then begin
      incr disagreements;
      if !disagreements <= 5 then
        Printf.eprintf "decoders disagree on %S\n" input
    end
  in
  List.iter check
    [
      ""; " "; "nul"; "truex"; "[1,]"; "{\"a\" 1}"; "{,}"; "[1 2]"; "-"; "-x";
      "1."; "1.e5"; "1e"; "1e+"; "01"; "-0"; "1E5"; "-1e-400"; "1e999";
      "[1e999"; "[1e999,"; "{\"k\":-1e400}"; "123456789012345678";
      "1234567890123456789"; "-4611686018427387904"; "4611686018427387904";
      "-4611686018427387905"; String.make 309 '9'; String.make 400 '7' ^ "x";
      {|"\u00e9\ud83d\ude00"|}; {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|};
      {|"\ude00"|}; {|"\u12"|}; {|"\u12g4"|}; {|"\q"|}; "\"a\\"; "\"a\001\"";
      {|"a\/b\bc\fd\re\tf\ng\"h\\"|}; "{\"a\":1 \"b\":2}"; "[\"x\" ]]";
      "{\"a\"}"; "\t{ \"a\" : [ null , true , false ] }\r\n";
    ];
  (* The depth guard, at and past the bound. *)
  List.iter
    (fun depth ->
      check ~max_depth:3 (String.make depth '[' ^ String.make depth ']');
      check ~max_depth:3 (String.make depth '{'))
    [ 1; 3; 4; 5 ];
  let rng = Prng.Rng.create ~seed:19 in
  for _ = 1 to 2000 do
    let encoded = Server.Json.encode (gen_json_value rng 3) in
    let n = String.length encoded in
    check encoded;
    check ~max_depth:1 encoded;
    for cut = 0 to n - 1 do
      check (String.sub encoded 0 cut)
    done;
    for _ = 1 to 8 do
      let mutated = Bytes.of_string encoded in
      Bytes.set mutated
        (Prng.Rng.int rng ~bound:n)
        (Char.chr (Prng.Rng.int rng ~bound:256));
      check (Bytes.to_string mutated)
    done
  done;
  Alcotest.(check int)
    (Printf.sprintf "disagreements over %d inputs" !checked)
    0 !disagreements

(* Words the minor heap takes per decode of [line], over many decodes. *)
let minor_words_per_decode decode line =
  ignore (decode line);
  let runs = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (decode line))
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let test_json_decode_allocation () =
  (* A perfbench request line: the shape every serve-hot request has. *)
  let line =
    {|{"route":"optimize","id":104729,"params":{"config":"coastal ssd/crusoe","rho":3.141593,"single_speed":false}}|}
  in
  let words = minor_words_per_decode Server.Json.decode line in
  let reference = minor_words_per_decode Json_reference.decode line in
  if words >= 250. then
    Alcotest.failf
      "decoding a request line takes %.0f minor words (the closure decoder \
       %.0f); the bound is 250"
      words reference

let test_metrics_window () =
  let m = Server.Metrics.create () in
  (* An early spike must age out of the bounded p99 window once a full
     window of fresh samples lands — but the all-time max keeps it. *)
  Server.Metrics.record m ~route:"solve" ~ok:true ~latency_s:9.;
  for _ = 1 to Server.Metrics.window do
    Server.Metrics.record m ~route:"solve" ~ok:true ~latency_s:0.001
  done;
  match Server.Metrics.routes m with
  | [ r ] ->
      let r : Server.Metrics.route_stats = r in
      Testutil.checkf "spike aged out of the p99" 0.001 r.latency_p99_s;
      Testutil.checkf "still the all-time max" 9. r.latency_max_s
  | routes -> Alcotest.failf "expected 1 route, got %d" (List.length routes)

(* ------------------------------------------------------------------ *)
(* Line framing against the Buffer-era reference                       *)

(* One stream under a small [max_bytes], and the sizes of the reads it
   arrives in, down to one byte: blank, whitespace-only and CRLF lines,
   lines of exactly [max_bytes] and one byte more, longer lines whose
   tail may pass [max_bytes] before their newline arrives, and a final
   unterminated line. Bytes near '\n' in value (0x0b, 0x8a...) keep the
   word-at-a-time search honest. *)
let gen_framing =
  let open QCheck.Gen in
  int_range 4 24 >>= fun max_bytes ->
  let space = oneofl [ ' '; '\t'; '\r'; '\012' ] in
  let byte =
    frequency
      [
        (6, char_range 'a' 'z');
        (2, oneofl [ '{'; '}'; '"'; ':' ]);
        (2, space);
        (1, oneofl [ '\000'; '\001'; '\011'; '\x8a'; '\x80'; '\xff' ]);
      ]
  in
  let text n = string_size ~gen:byte (return n) in
  let ended ending g = map (fun s -> s ^ ending) g in
  let line =
    frequency
      [
        (1, return "\n");
        (1, ended "\n" (string_size ~gen:space (int_range 1 (2 * max_bytes))));
        (2, ended "\r\n" (int_range 0 max_bytes >>= text));
        (2, ended "\n" (map (( ^ ) "x") (text (max_bytes - 1))));
        (2, ended "\n" (map (( ^ ) "x") (text max_bytes)));
        (3, ended "\n" (int_range 0 (3 * max_bytes) >>= text));
      ]
  in
  let last =
    frequency [ (1, return ""); (2, int_range 1 (2 * max_bytes) >>= text) ]
  in
  let rec reads left acc =
    if left <= 0 then return (List.rev acc)
    else
      frequency
        [ (4, int_range 1 3); (3, int_range 4 16); (1, int_range 17 128) ]
      >>= fun n -> reads (left - Int.min n left) (Int.min n left :: acc)
  in
  list_size (int_range 0 12) line >>= fun body ->
  last >>= fun tail ->
  let stream = String.concat "" body ^ tail in
  reads (String.length stream) [] >>= fun sizes ->
  return (max_bytes, stream, sizes)

(* One listening socket for every case: each connects a fresh link. *)
let framing_listener =
  lazy
    (let dir = Filename.temp_file "rexspeed-framing" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let path = Filename.concat dir "link.sock" in
     let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 8;
     at_exit (fun () ->
         Unix.close fd;
         Sys.remove path;
         Unix.rmdir dir);
     (fd, path))

let show_lines lines =
  String.concat "; "
    (List.map
       (function
         | Server.Conn.Line l -> Printf.sprintf "Line %S" l
         | Server.Conn.Too_large -> "Too_large")
       lines)

(* Each read's bytes go through a real socket to a [Conn.connect]ed
   link; after every read, and once the peer has closed, [Conn.lines]
   and [Conn.eof] must be the reference's. *)
let test_conn_framing_reference =
  Testutil.qcheck
  @@ QCheck.Test.make ~count:400
       ~name:"Conn.lines = Buffer-era framing, any chunking"
       (QCheck.make gen_framing ~print:(fun (max_bytes, stream, sizes) ->
            Printf.sprintf "max_bytes %d, stream %S, reads %s" max_bytes stream
              (String.concat " " (List.map string_of_int sizes))))
       (fun (max_bytes, stream, sizes) ->
         let listener, path = Lazy.force framing_listener in
         let link =
           match Server.Conn.connect path with
           | Ok link -> link
           | Error e -> Alcotest.failf "connect: %s" e
         in
         let peer, _ = Unix.accept listener in
         let reference = Conn_reference.create () in
         let agree step =
           let got = Server.Conn.lines ~max_bytes link
           and want = Conn_reference.lines ~max_bytes reference in
           if got <> want || Server.Conn.eof link <> reference.eof then
             QCheck.Test.fail_reportf
               "%s: Conn framed [%s] (eof %b), the reference [%s] (eof %b)"
               step (show_lines got) (Server.Conn.eof link) (show_lines want)
               reference.eof
         in
         Fun.protect
           ~finally:(fun () ->
             Server.Conn.close link;
             Unix.close peer)
           (fun () ->
             ignore
               (List.fold_left
                  (fun off n ->
                    let chunk = String.sub stream off n in
                    write_all peer chunk;
                    Server.Conn.read link;
                    Conn_reference.read reference chunk;
                    agree (Printf.sprintf "after byte %d" (off + n));
                    off + n)
                  0 sizes
                 : int);
             Unix.shutdown peer Unix.SHUTDOWN_SEND;
             Server.Conn.read link;
             Conn_reference.peer_closed reference;
             agree "after the peer closed";
             true))

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          test_json_roundtrip;
          Alcotest.test_case "encode" `Quick test_json_encode;
          Alcotest.test_case "decode" `Quick test_json_decode;
          Alcotest.test_case "error positions" `Quick test_json_error_positions;
          Alcotest.test_case "escaping = byte-by-byte reference" `Quick
            test_json_escape_differential;
        ] );
      ("conn", [ test_conn_framing_reference ]);
      ( "lru",
        [
          Alcotest.test_case "eviction and accounting" `Quick test_lru;
          Alcotest.test_case "disabled cache" `Quick test_lru_disabled;
          test_lru_eviction_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "latency stats" `Quick test_metrics;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          Alcotest.test_case "NaN latency" `Quick test_metrics_nan_poison;
          Alcotest.test_case "bounded window" `Quick test_metrics_window;
        ] );
      ( "json-prng",
        [
          Alcotest.test_case "roundtrip via lib/prng" `Quick
            test_json_prng_roundtrip;
          Alcotest.test_case "single-byte mutations are total" `Quick
            test_json_mutation_total;
          Alcotest.test_case "decoder = closure-decoder reference" `Quick
            test_json_decoder_differential;
          Alcotest.test_case "request line allocation" `Quick
            test_json_decode_allocation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "fingerprint" `Quick test_protocol_fingerprint;
          Alcotest.test_case "fingerprint = Printf-era checksum" `Quick
            test_fingerprint_printf_reference;
          Alcotest.test_case "hot keys keep their shards" `Quick
            test_hot_keys_keep_shards;
        ] );
      ( "shard-map",
        [
          Alcotest.test_case "lookup" `Quick test_shard_map_lookup;
          Alcotest.test_case "spread" `Quick test_shard_map_spread;
          Alcotest.test_case "resize stability" `Quick
            test_shard_map_resize_stability;
        ] );
      ( "render",
        [
          Alcotest.test_case "optimize" `Quick test_render;
          Alcotest.test_case "optimize bytes pinned" `Quick test_render_digest;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Quick test_daemon_end_to_end;
          Alcotest.test_case "hit and miss bytes pinned" `Quick
            test_daemon_hit_bytes;
          Alcotest.test_case "health and stats shape" `Quick
            test_daemon_telemetry_shape;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "deadline expiry" `Quick test_daemon_deadline;
          Alcotest.test_case "load shedding" `Quick test_daemon_shedding;
          Alcotest.test_case "io timeout reaps stalled client" `Quick
            test_daemon_io_timeout;
          Alcotest.test_case "verify divergence" `Quick
            test_daemon_verify_divergence;
          Alcotest.test_case "drain answers the burst" `Quick
            test_daemon_drain_burst;
          Alcotest.test_case "stop drains one daemon only" `Quick
            test_daemon_stop_is_per_run;
          Alcotest.test_case "stop set before run" `Quick
            test_daemon_stop_before_run;
          Alcotest.test_case "stale socket" `Quick test_daemon_stale_socket;
          Alcotest.test_case "health counters" `Quick
            test_daemon_health_hardening;
          Alcotest.test_case "stalled reader delays no one" `Quick
            test_daemon_stalled_reader;
          Alcotest.test_case "io timeout drops a stalled reader" `Quick
            test_daemon_write_timeout;
        ] );
    ]
