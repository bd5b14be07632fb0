(* Tests for the crash-safety layer: FNV-1a checksums, the verified
   on-disk journal, deterministic chaos injection and checkpointed
   parallel execution with resume. *)

let temp_path () = Filename.temp_file "rexspeed-test" ".journal"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let expect_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" label e

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)

let test_checksum_vectors () =
  (* Reference vectors from the published FNV-1a test suite. *)
  let check label expected input =
    Alcotest.(check string)
      label expected
      (Resilience.Checksum.to_hex (Resilience.Checksum.string input))
  in
  check "empty string is the offset basis" "cbf29ce484222325" "";
  check "single byte" "af63dc4c8601ec8c" "a";
  check "foobar" "85944171f73967e8" "foobar";
  Alcotest.(check string)
    "hex_of_string composes" "cbf29ce484222325"
    (Resilience.Checksum.hex_of_string "");
  Alcotest.(check int)
    "hex rendering is fixed width" 16
    (String.length (Resilience.Checksum.to_hex 1L));
  Alcotest.(check bool)
    "one-bit inputs diverge" false
    (Resilience.Checksum.string "journal\x00" = Resilience.Checksum.string "journal\x01")

let test_checksum_fold_allocation () =
  (* The fold runs unboxed: a long input costs no more words than a
     short one (just the boxed result). *)
  let words s =
    Testutil.minor_words (fun () -> ignore (Resilience.Checksum.string s))
  in
  let short = words "x" and long = words (String.make 10_000 'x') in
  Alcotest.(check bool)
    (Printf.sprintf "10 kB costs %.0f words, 1 byte %.0f" long short)
    true
    (long <= short && short <= 8.);
  Alcotest.(check int64) "sub agrees with string"
    (Resilience.Checksum.string "journal")
    (Resilience.Checksum.sub "a journal line" ~pos:2 ~len:7);
  Alcotest.check_raises "sub outside the string"
    (Invalid_argument "Checksum.sub") (fun () ->
      ignore (Resilience.Checksum.sub "abc" ~pos:2 ~len:2))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let payload_of_index i = Printf.sprintf "payload %d \x00\xff\nwith noise" i

let write_journal ~path ~description n =
  let w =
    expect_ok "create" (Resilience.Journal.create ~path ~description ())
  in
  for i = 0 to n - 1 do
    Resilience.Journal.append w ~index:i ~payload:(payload_of_index i)
  done;
  Resilience.Journal.close w

let test_journal_roundtrip () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_journal ~path ~description:"roundtrip" 8;
  let r =
    expect_ok "read"
      (Resilience.Journal.read ~path ~description:"roundtrip" ~slots:8)
  in
  Alcotest.(check int) "all entries recovered" 8 r.Resilience.Journal.entries;
  Alcotest.(check bool) "nothing dropped" false r.Resilience.Journal.dropped;
  Array.iteri
    (fun i p ->
      Alcotest.(check (option string))
        (Printf.sprintf "payload %d survives binary bytes" i)
        (Some (payload_of_index i))
        p)
    r.Resilience.Journal.payloads

let test_journal_torn_tail () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_journal ~path ~description:"torn" 5;
  (* A crash mid-append leaves a partial, unterminated record. *)
  Out_channel.with_open_gen
    [ Open_append; Open_binary ] 0o644 path
    (fun oc -> Out_channel.output_string oc "R 5 deadbeef");
  let r =
    expect_ok "read"
      (Resilience.Journal.read ~path ~description:"torn" ~slots:6)
  in
  Alcotest.(check int) "verified prefix recovered" 5 r.Resilience.Journal.entries;
  Alcotest.(check bool) "tail reported dropped" true r.Resilience.Journal.dropped;
  Alcotest.(check (option string)) "torn slot empty" None
    r.Resilience.Journal.payloads.(5);
  (* Reopen truncates the torn tail; the next append lands cleanly. *)
  let w =
    expect_ok "reopen"
      (Resilience.Journal.reopen ~path
         ~valid_bytes:r.Resilience.Journal.valid_bytes ())
  in
  Resilience.Journal.append w ~index:5 ~payload:(payload_of_index 5);
  Resilience.Journal.close w;
  let r =
    expect_ok "re-read"
      (Resilience.Journal.read ~path ~description:"torn" ~slots:6)
  in
  Alcotest.(check int) "repaired journal is whole" 6 r.Resilience.Journal.entries;
  Alcotest.(check bool) "nothing dropped after repair" false
    r.Resilience.Journal.dropped

let test_journal_corrupted_record () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_journal ~path ~description:"corrupt" 6;
  (* Flip one payload byte of the record for slot 3: its checksum no
     longer matches, so recovery must stop just before it. *)
  let contents = read_file path in
  let target = "R 3 " in
  let pos =
    let n = String.length target in
    let rec go i =
      if i + n > String.length contents then
        Alcotest.failf "record %S not found in journal" target
      else if String.sub contents i n = target then i
      else go (i + 1)
    in
    go 0
  in
  let bytes = Bytes.of_string contents in
  let flip = pos + String.length target in
  Bytes.set bytes flip (if Bytes.get bytes flip = '0' then '1' else '0');
  write_file path (Bytes.to_string bytes);
  let r =
    expect_ok "read"
      (Resilience.Journal.read ~path ~description:"corrupt" ~slots:6)
  in
  Alcotest.(check int) "records before the damage survive" 3
    r.Resilience.Journal.entries;
  Alcotest.(check bool) "damage reported" true r.Resilience.Journal.dropped;
  Alcotest.(check (option string)) "slot before damage" (Some (payload_of_index 2))
    r.Resilience.Journal.payloads.(2);
  Alcotest.(check (option string)) "damaged slot dropped" None
    r.Resilience.Journal.payloads.(3);
  Alcotest.(check (option string)) "slots after damage untrusted" None
    r.Resilience.Journal.payloads.(4)

let test_journal_fingerprint_mismatch () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_journal ~path ~description:"seed=1 workload=a" 2;
  match
    Resilience.Journal.read ~path ~description:"seed=2 workload=a" ~slots:2
  with
  | Ok _ -> Alcotest.fail "fingerprint mismatch must be an error"
  | Error e ->
      Alcotest.(check bool) "error names the stored fingerprint" true
        (Astring_contains.contains e "seed=1 workload=a");
      Alcotest.(check bool) "error names the requested fingerprint" true
        (Astring_contains.contains e "seed=2 workload=a")

let test_journal_bad_magic () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "not a journal\n";
  match Resilience.Journal.read ~path ~description:"x" ~slots:1 with
  | Ok _ -> Alcotest.fail "bad magic must be an error"
  | Error e ->
      Alcotest.(check bool) "error mentions the magic" true
        (Astring_contains.contains e "magic")

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)

let test_chaos_decision_function () =
  (* Purity: the decision depends on nothing but its arguments. *)
  for i = 0 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "pure at index %d" i)
      (Resilience.Chaos.fires ~p:0.3 ~seed:42 ~index:i ~attempt:1)
      (Resilience.Chaos.fires ~p:0.3 ~seed:42 ~index:i ~attempt:1)
  done;
  (* p = 0 never fires; the empirical rate tracks p. *)
  let count p seed =
    let n = 10_000 in
    let hits = ref 0 in
    for i = 0 to n - 1 do
      if Resilience.Chaos.fires ~p ~seed ~index:i ~attempt:1 then incr hits
    done;
    float_of_int !hits /. float_of_int n
  in
  Alcotest.(check (float 0.)) "p = 0 never fires" 0. (count 0. 7);
  let rate = count 0.3 7 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.3f tracks p = 0.3" rate)
    true
    (Float.abs (rate -. 0.3) < 0.02);
  (* Distinct seeds and distinct attempts give distinct schedules. *)
  let schedule seed attempt =
    List.init 64 (fun i ->
        Resilience.Chaos.fires ~p:0.3 ~seed ~index:i ~attempt)
  in
  Alcotest.(check bool) "seeds decorrelate" false
    (schedule 1 1 = schedule 2 1);
  Alcotest.(check bool) "attempts decorrelate" false
    (schedule 1 1 = schedule 1 2)

let test_chaos_configure () =
  Fun.protect ~finally:Resilience.Chaos.disable @@ fun () ->
  (match Resilience.Chaos.configure ~p:(-0.1) ~seed:1 with
  | Ok () -> Alcotest.fail "negative p must be rejected"
  | Error _ -> ());
  (match Resilience.Chaos.configure ~p:1. ~seed:1 with
  | Ok () -> Alcotest.fail "p = 1 must be rejected (no run could finish)"
  | Error _ -> ());
  (match Resilience.Chaos.configure ~p:0.25 ~seed:9 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid configure rejected: %s" e);
  Alcotest.(check (option (pair (float 0.) int)))
    "active reports the configuration" (Some (0.25, 9))
    (Resilience.Chaos.active ());
  (match Resilience.Chaos.configure ~p:0. ~seed:9 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "p = 0 rejected: %s" e);
  Alcotest.(check (option (pair (float 0.) int)))
    "p = 0 is equivalent to disable" None
    (Resilience.Chaos.active ())

let test_chaos_identity_under_retries () =
  (* With retries enabled an injected fault never changes results:
     the pool's outputs under chaos are bit-identical. *)
  Fun.protect ~finally:Resilience.Chaos.disable @@ fun () ->
  let pool = Parallel.Pool.create ~domains:2 in
  let f i = float_of_int (i * i) +. 0.5 in
  let reference = Parallel.Pool.init_array pool 500 f in
  (match Resilience.Chaos.configure ~p:0.3 ~seed:11 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure: %s" e);
  let under_chaos = Parallel.Pool.init_array pool 500 f in
  Resilience.Chaos.disable ();
  Alcotest.(check bool) "bit-identical under chaos" true
    (reference = under_chaos)

let test_chaos_io_spec () =
  let ok spec =
    match Resilience.Chaos.io_of_spec spec with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "spec %S rejected: %s" spec e
  in
  let cfg = ok "drop=0.1,torn=0.2,corrupt=0.3,kill=0.4,seed=77" in
  Alcotest.(check (float 0.)) "drop" 0.1 cfg.Resilience.Chaos.drop_p;
  Alcotest.(check (float 0.)) "torn" 0.2 cfg.Resilience.Chaos.torn_p;
  Alcotest.(check (float 0.)) "corrupt" 0.3 cfg.Resilience.Chaos.corrupt_p;
  Alcotest.(check (float 0.)) "kill" 0.4 cfg.Resilience.Chaos.kill_p;
  Alcotest.(check int) "seed" 77 cfg.Resilience.Chaos.io_seed;
  (* Keys may come in any order and any subset; unmentioned keys keep
     the all-zero default. *)
  let cfg = ok "seed=5,drop=0.25" in
  Alcotest.(check (float 0.)) "subset drop" 0.25 cfg.Resilience.Chaos.drop_p;
  Alcotest.(check (float 0.)) "subset torn defaults"
    Resilience.Chaos.default_io_config.Resilience.Chaos.torn_p
    cfg.Resilience.Chaos.torn_p;
  Alcotest.(check int) "subset seed" 5 cfg.Resilience.Chaos.io_seed;
  List.iter
    (fun spec ->
      match Resilience.Chaos.io_of_spec spec with
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec
      | Error _ -> ())
    [ "drop"; "drop=x"; "bogus=0.1"; "drop=0.1,"; "seed=1.5" ]

let test_chaos_io_fires () =
  let cfg =
    {
      Resilience.Chaos.drop_p = 0.3;
      torn_p = 0.3;
      corrupt_p = 0.3;
      kill_p = 0.3;
      io_seed = 42;
    }
  in
  (* Purity. *)
  for i = 0 to 50 do
    Alcotest.(check bool)
      (Printf.sprintf "pure at %d" i)
      (Resilience.Chaos.io_fires cfg Drop ~index:i ~attempt:1)
      (Resilience.Chaos.io_fires cfg Drop ~index:i ~attempt:1)
  done;
  (* Each kind draws from its own salted stream: equal probabilities
     must not mean equal schedules. *)
  let schedule kind =
    List.init 128 (fun i ->
        Resilience.Chaos.io_fires cfg kind ~index:i ~attempt:1)
  in
  Alcotest.(check bool) "drop and torn decorrelate" false
    (schedule Drop = schedule Torn);
  Alcotest.(check bool) "corrupt and kill decorrelate" false
    (schedule Corrupt = schedule Kill);
  (* Zero probability never fires. *)
  let quiet = Resilience.Chaos.default_io_config in
  for i = 0 to 100 do
    Alcotest.(check bool) "all-zero config never fires" false
      (Resilience.Chaos.io_fires quiet Drop ~index:i ~attempt:1)
  done

let test_chaos_io_corrupt () =
  let cfg =
    { Resilience.Chaos.default_io_config with corrupt_p = 0.5; io_seed = 9 }
  in
  let s = "the quick brown fox jumps over the lazy dog" in
  let c1 = Resilience.Chaos.corrupt_string cfg ~index:3 s in
  let c2 = Resilience.Chaos.corrupt_string cfg ~index:3 s in
  Alcotest.(check string) "deterministic" c1 c2;
  Alcotest.(check bool) "not a no-op" false (String.equal s c1);
  Alcotest.(check int) "length preserved" (String.length s)
    (String.length c1);
  (* Exactly one bit differs. *)
  let diff_bits = ref 0 in
  String.iteri
    (fun i ch ->
      let x = Char.code ch lxor Char.code c1.[i] in
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      diff_bits := !diff_bits + pop x)
    s;
  Alcotest.(check int) "single bit flip" 1 !diff_bits;
  Alcotest.(check string) "empty string unchanged" ""
    (Resilience.Chaos.corrupt_string cfg ~index:0 "")

let test_chaos_io_configure () =
  Fun.protect ~finally:Resilience.Chaos.disable_io @@ fun () ->
  (match
     Resilience.Chaos.configure_io
       { Resilience.Chaos.default_io_config with drop_p = -0.1 }
   with
  | Ok () -> Alcotest.fail "negative drop_p must be rejected"
  | Error _ -> ());
  (match
     Resilience.Chaos.configure_io
       { Resilience.Chaos.default_io_config with kill_p = 1. }
   with
  | Ok () -> Alcotest.fail "kill_p = 1 must be rejected"
  | Error _ -> ());
  let cfg =
    { Resilience.Chaos.default_io_config with torn_p = 0.5; io_seed = 3 }
  in
  (match Resilience.Chaos.configure_io cfg with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid configure_io rejected: %s" e);
  (match Resilience.Chaos.io_active () with
  | Some active ->
      Alcotest.(check (float 0.)) "active torn_p" 0.5
        active.Resilience.Chaos.torn_p
  | None -> Alcotest.fail "io chaos should be active");
  (* An all-zero config is equivalent to disable_io. *)
  (match Resilience.Chaos.configure_io Resilience.Chaos.default_io_config with
  | Ok () -> ()
  | Error e -> Alcotest.failf "all-zero configure_io rejected: %s" e);
  Alcotest.(check bool) "all-zero config deactivates" true
    (Resilience.Chaos.io_active () = None);
  Resilience.Chaos.disable_io ();
  Alcotest.(check bool) "disabled" true
    (Resilience.Chaos.io_active () = None)

(* ------------------------------------------------------------------ *)
(* Checkpointed                                                        *)

let counting_f calls i =
  Atomic.incr calls;
  (* A value with real float structure, so Marshal round-tripping is
     exercised beyond integers. *)
  (float_of_int i /. 7., i * 3)

let journal ~path ?(resume = false) description =
  (* [durable = true] so the test suite exercises the fsync path the
     CLI uses by default. *)
  { Resilience.Checkpointed.path; resume; description; durable = true }

let test_checkpointed_fresh_and_resume () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  let n = 23 in
  let calls = Atomic.make 0 in
  let fresh =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path "count") ~batch:4 n (counting_f calls)
  in
  Alcotest.(check int) "fresh run computes every slot" n (Atomic.get calls);
  Alcotest.(check bool) "fresh run matches the plain pool" true
    (fresh = Parallel.Pool.init_array pool n (fun i -> (float_of_int i /. 7., i * 3)));
  (* Resume over the complete journal: every slot recovered, the
     function never runs, the array is bit-identical. *)
  Atomic.set calls 0;
  let resumes = ref [] in
  let resumed =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path ~resume:true "count")
      ~batch:4
      ~on_resume:(fun ~entries ~dropped -> resumes := (entries, dropped) :: !resumes)
      n (counting_f calls)
  in
  Alcotest.(check int) "resume recomputes nothing" 0 (Atomic.get calls);
  Alcotest.(check (list (pair int bool))) "on_resume reports a full journal"
    [ (n, false) ] !resumes;
  Alcotest.(check bool) "resumed array is bit-identical" true (fresh = resumed);
  (* resume = false over the same path starts from scratch. *)
  Atomic.set calls 0;
  let restarted =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path "count") ~batch:4 n (counting_f calls)
  in
  Alcotest.(check int) "restart recomputes every slot" n (Atomic.get calls);
  Alcotest.(check bool) "restart is bit-identical" true (fresh = restarted)

(* Which slots a run computed, for a sequential pool. *)
let recording_f seen i =
  Atomic.incr seen.(i);
  (float_of_int i /. 7., i * 3)

let computed seen =
  List.filter (fun i -> Atomic.get seen.(i) > 0) (List.init (Array.length seen) Fun.id)

let test_checkpointed_partial_resume () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  let n = 20 in
  let seen () = Array.init n (fun _ -> Atomic.make 0) in
  let fresh =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path "partial") ~batch:5 n (recording_f (seen ()))
  in
  (* Simulate a crash inside the third block: keep magic + header + the
     records of blocks 0 and 1 (slots 0-9), and tear block 2's record
     mid-write. *)
  let lines = String.split_on_char '\n' (read_file path) in
  let keep = List.filteri (fun i _ -> i < 2 + 2) lines in
  let torn = List.nth lines 4 in
  write_file path
    (String.concat "\n" keep ^ "\n" ^ String.sub torn 0 (String.length torn / 2));
  let recomputed = seen () in
  let resumes = ref [] in
  let resumed =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path ~resume:true "partial")
      ~batch:5
      ~on_resume:(fun ~entries ~dropped -> resumes := (entries, dropped) :: !resumes)
      n (recording_f recomputed)
  in
  Alcotest.(check (list int))
    "the torn block and every block after it recomputed, nothing else"
    (List.init 10 (fun i -> 10 + i))
    (computed recomputed);
  Alcotest.(check (list (pair int bool)))
    "on_resume reports the recovered slots and the dropped tail"
    [ (10, true) ] !resumes;
  Alcotest.(check bool) "partial resume is bit-identical" true
    (fresh = resumed);
  (* The repaired journal is complete: a further resume recovers all. *)
  let again_seen = seen () in
  resumes := [];
  let again =
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path ~resume:true "partial") ~batch:5
      ~on_resume:(fun ~entries ~dropped -> resumes := (entries, dropped) :: !resumes)
      n (recording_f again_seen)
  in
  Alcotest.(check (list int)) "journal was repaired by the resume" []
    (computed again_seen);
  Alcotest.(check (list (pair int bool))) "and is whole" [ (n, false) ] !resumes;
  Alcotest.(check bool) "still bit-identical" true (fresh = again)

let test_checkpointed_block_records () =
  (* One record line per block, indexed by the block's first slot. *)
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  List.iter
    (fun (n, batch) ->
      ignore
        (Resilience.Checkpointed.init_array ~pool
           ~journal:(journal ~path "blocks") ~batch n float_of_int);
      let records =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "R"; index; _; _ ] -> Some (int_of_string index)
            | _ -> None)
          (String.split_on_char '\n' (read_file path))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d batch=%d: ceil(n/batch) records" n batch)
        (List.init ((n + batch - 1) / batch) (fun b -> b * batch))
        records)
    [ (23, 4); (24, 4); (1, 64); (64, 64); (65, 64); (3, 1) ]

(* A per-slot journal of [init_array ~batch:2 3 (fun i -> i * 7)] under
   the description "per-slot", as the build before block records wrote
   it: one record per slot and no grain tag in the fingerprint. *)
let per_slot_journal =
  "rexspeed-journal v1\n\
   H 7065722d736c6f742023736c6f74733d33 c1d31beae2c2af76\n\
   R 0 8495a6be0000000100000000000000000000000040 957ee6900db840a0\n\
   R 1 8495a6be0000000100000000000000000000000047 8562db7a8e5bb3ac\n\
   R 2 8495a6be000000010000000000000000000000004e bcf5d4594cc226a5\n"

let test_checkpointed_per_slot_refused () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path per_slot_journal;
  let calls = Atomic.make 0 in
  (match
     Resilience.Checkpointed.init_array ~pool:Parallel.Pool.sequential
       ~journal:(journal ~path ~resume:true "per-slot") ~batch:2 3
       (fun i -> Atomic.incr calls; i * 7)
   with
  | _ -> Alcotest.fail "a per-slot journal must raise Journal_error"
  | exception Resilience.Checkpointed.Journal_error e ->
      Alcotest.(check bool) "error names both grains" true
        (Astring_contains.contains e "per-slot #slots=3\n"
        && Astring_contains.contains e "per-slot #slots=3 #block=2"));
  Alcotest.(check int) "nothing computed" 0 (Atomic.get calls);
  Alcotest.(check string) "the refused journal is left as it was"
    per_slot_journal (read_file path)

let test_durability_due () =
  let due = Resilience.Checkpointed.durability_due in
  let period c =
    Numerics.Young_daly.failstop_period ~c
      ~lambda:(1. /. Resilience.Checkpointed.crash_mtbf)
  in
  Alcotest.(check (float 0.)) "one hour" 3600. Resilience.Checkpointed.crash_mtbf;
  List.iter
    (fun cost ->
      let w = period cost in
      Alcotest.(check bool) (Printf.sprintf "C=%g: not due before W" cost) false
        (due ~cost ~work:(Float.pred w));
      Alcotest.(check bool) (Printf.sprintf "C=%g: due at W" cost) true
        (due ~cost ~work:w);
      Alcotest.(check bool) (Printf.sprintf "C=%g: not due at 0" cost) false
        (due ~cost ~work:0.))
    [ 128e-6; 4.5e-6; 1e-9; 2. ];
  (* The periods the journal's measured costs lead to. *)
  Testutil.checkf ~eps:1e-3 "durable: C = 128 us, W = 0.96 s" 0.96 (period 128e-6);
  Testutil.checkf ~eps:1e-3 "page cache: C = 4.5 us, W = 0.18 s" 0.18 (period 4.5e-6);
  Alcotest.(check bool) "no measured cost yet: due" true (due ~cost:0. ~work:0.);
  Alcotest.(check bool) "clock stepped back: due" true
    (due ~cost:128e-6 ~work:(-1e-3))

(* A run's journal reads back whole, durable run or raising one: every
   exit ends in a durability point. *)
let test_checkpointed_exit_durability () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  let n = 23 and batch = 4 in
  let flushes run =
    Tracing.Tracer.start ();
    let outcome =
      match run () with
      | _ -> None
      | exception (Parallel.Pool.Tasks_failed _ as e) -> Some e
    in
    match Tracing.Tracer.finish () with
    | Some dump -> (outcome, List.assoc Tracing.Span.Journal_flushes dump.counters)
    | None -> Alcotest.fail "no trace session"
  in
  let resume_slots () =
    let slots = ref (-1) in
    let calls = Atomic.make 0 in
    ignore
      (Resilience.Checkpointed.init_array ~pool
         ~journal:(journal ~path ~resume:true "exit") ~batch
         ~on_resume:(fun ~entries ~dropped:_ -> slots := entries)
         n (counting_f calls));
    (!slots, Atomic.get calls)
  in
  let outcome, points =
    flushes (fun () ->
        Resilience.Checkpointed.init_array ~pool
          ~journal:(journal ~path "exit") ~batch n (counting_f (Atomic.make 0)))
  in
  Alcotest.(check bool) "durable run finishes" true (outcome = None);
  (* Its header's fsync costs at least microseconds, so the period is
     a fraction of a second at least, far beyond this run's 6 blocks:
     its one point is the exit's (two if the header's cost read as 0). *)
  Alcotest.(check bool)
    (Printf.sprintf "and ends in a durability point, not one per block (%d)" points)
    true
    (points >= 1 && points <= 2);
  Alcotest.(check (pair int int)) "every block reads back" (n, 0) (resume_slots ());
  (* Slot 13 fails: blocks 0-2 complete, block 3 raises. *)
  let outcome, points =
    flushes (fun () ->
        Resilience.Checkpointed.init_array ~pool
          ~journal:(journal ~path "exit") ~batch n (fun i ->
            if i = 13 then failwith "slot 13" else counting_f (Atomic.make 0) i))
  in
  (match outcome with
  | Some (Parallel.Pool.Tasks_failed [ { Parallel.Pool.index = 13; _ } ]) -> ()
  | _ -> Alcotest.fail "expected Tasks_failed at slot 13");
  Alcotest.(check bool) "the raising run ends in a durability point" true
    (points >= 1);
  Alcotest.(check (pair int int)) "every completed block reads back" (12, n - 12)
    (resume_slots ())

let test_checkpointed_fingerprint_mismatch () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  ignore
    (Resilience.Checkpointed.init_array ~pool
       ~journal:(journal ~path "run A") 4 float_of_int);
  match
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path ~resume:true "run B") 4 float_of_int
  with
  | _ -> Alcotest.fail "fingerprint mismatch must raise Journal_error"
  | exception Resilience.Checkpointed.Journal_error e ->
      Alcotest.(check bool) "error names both fingerprints" true
        (Astring_contains.contains e "run A"
        && Astring_contains.contains e "run B")

let test_checkpointed_slot_count_mismatch () =
  (* The slot count is part of the fingerprint: resuming the same
     workload at a different size must be refused, not half-recovered. *)
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Parallel.Pool.sequential in
  ignore
    (Resilience.Checkpointed.init_array ~pool
       ~journal:(journal ~path "sized") 8 float_of_int);
  match
    Resilience.Checkpointed.init_array ~pool
      ~journal:(journal ~path ~resume:true "sized") 9 float_of_int
  with
  | _ -> Alcotest.fail "slot-count mismatch must raise Journal_error"
  | exception Resilience.Checkpointed.Journal_error _ -> ()

let test_montecarlo_resilience_identity () =
  (* Every resilience layer composed on the real Monte-Carlo workload,
     at 2 domains: a journaled run, a full resume, a resume after the
     file is cut at half its bytes (which tears the record there),
     task chaos and kill chaos each reproduce the plain estimate bit
     for bit. *)
  let pool = Parallel.Pool.create ~domains:2 in
  let model =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()
  in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let replicas = 4000 in
  let estimate ?journal ?on_resume () =
    Sim.Montecarlo.pattern_estimate ~pool ?journal ?on_resume ~replicas
      ~seed:2016 ~model ~power ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  let plain = estimate () in
  let same label v = Alcotest.(check bool) label true (v = plain) in
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let recovered = ref (-1) in
  let resume () =
    estimate
      ~journal:(journal ~path ~resume:true "mc identity")
      ~on_resume:(fun ~entries ~dropped:_ -> recovered := entries)
      ()
  in
  same "journaled = plain" (estimate ~journal:(journal ~path "mc identity") ());
  same "full resume = plain" (resume ());
  Alcotest.(check int) "full resume recovers every replica" replicas
    !recovered;
  Unix.truncate path ((Unix.stat path).Unix.st_size / 2);
  same "half resume = plain" (resume ());
  Alcotest.(check bool) "half resume recovers a part" true
    (0 < !recovered && !recovered < replicas);
  (match Resilience.Chaos.configure ~p:0.2 ~seed:7 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos configure: %s" e);
  Fun.protect ~finally:Resilience.Chaos.disable (fun () ->
      same "task chaos p=0.2 = plain" (estimate ()));
  (match
     Resilience.Chaos.configure_io
       { Resilience.Chaos.default_io_config with kill_p = 0.002; io_seed = 5 }
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "io chaos configure: %s" e);
  Fun.protect ~finally:Resilience.Chaos.disable_io @@ fun () ->
  let before = Parallel.Pool.worker_restarts () in
  same "kill chaos p=0.002 = plain" (estimate ());
  Alcotest.(check bool) "killed workers were restarted" true
    (Parallel.Pool.worker_restarts () > before)

let test_journal_header_and_hex () =
  (* The format hooks the tamper tests build on: the hex codec must
     round-trip arbitrary bytes (and reject odd-length input), and a
     fresh journal's first line must be the advertised magic. *)
  let payload = "tamper\x00\xffprobe" in
  Alcotest.(check (option string))
    "hex round-trip" (Some payload)
    (Resilience.Journal.hex_decode (Resilience.Journal.hex_encode payload));
  Alcotest.(check (option string))
    "odd-length rejected" None
    (Resilience.Journal.hex_decode "abc");
  let every_byte = String.init 256 Char.chr in
  Alcotest.(check (option string))
    "all 256 byte values round-trip" (Some every_byte)
    (Resilience.Journal.hex_decode (Resilience.Journal.hex_encode every_byte));
  Alcotest.(check (option string))
    "upper-case hex accepted" (Some "\xab\xcd\xef")
    (Resilience.Journal.hex_decode "ABcDeF");
  Alcotest.(check (option string))
    "non-hex digit rejected" None
    (Resilience.Journal.hex_decode "0g");
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_journal ~path ~description:"header" 1;
  let first_line = In_channel.with_open_text path input_line in
  Alcotest.(check string) "header is Journal.magic" Resilience.Journal.magic
    first_line

(* The on-disk bytes of a small journal, pinned: the codec may change,
   the file may not, so journals written by any version resume. *)
let golden_journal =
  "rexspeed-journal v1\n\
   H 676f6c64656e 5bcc89f9a674e3df\n\
   R 0 00ff 2a7a6dd533a9f7d7\n\
   R 1 6162 9815f7657f4754ff\n"

let test_journal_golden_bytes () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w =
    expect_ok "create"
      (Resilience.Journal.create ~sync:false ~path ~description:"golden" ())
  in
  Resilience.Journal.append w ~index:0 ~payload:"\x00\xff";
  Resilience.Journal.append w ~index:1 ~payload:"ab";
  Resilience.Journal.close w;
  Alcotest.(check string) "file bytes" golden_journal (read_file path);
  write_file path golden_journal;
  let r =
    expect_ok "read"
      (Resilience.Journal.read ~path ~description:"golden" ~slots:2)
  in
  Alcotest.(check (array (option string)))
    "payloads recovered" [| Some "\x00\xff"; Some "ab" |]
    r.Resilience.Journal.payloads;
  Alcotest.(check bool) "nothing dropped" false r.Resilience.Journal.dropped;
  Alcotest.(check int) "whole file verified" (String.length golden_journal)
    r.Resilience.Journal.valid_bytes

let () =
  Alcotest.run "resilience"
    [
      ( "checksum",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_checksum_vectors;
          Alcotest.test_case "fold allocation" `Quick
            test_checksum_fold_allocation;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "corrupted record" `Quick
            test_journal_corrupted_record;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_journal_fingerprint_mismatch;
          Alcotest.test_case "bad magic" `Quick test_journal_bad_magic;
          Alcotest.test_case "header and hex codec" `Quick
            test_journal_header_and_hex;
          Alcotest.test_case "golden bytes" `Quick test_journal_golden_bytes;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "decision function" `Quick
            test_chaos_decision_function;
          Alcotest.test_case "configure" `Quick test_chaos_configure;
          Alcotest.test_case "io spec parsing" `Quick test_chaos_io_spec;
          Alcotest.test_case "io decision streams" `Quick
            test_chaos_io_fires;
          Alcotest.test_case "io corruption" `Quick test_chaos_io_corrupt;
          Alcotest.test_case "io configure" `Quick test_chaos_io_configure;
          Alcotest.test_case "identity under retries" `Quick
            test_chaos_identity_under_retries;
        ] );
      ( "checkpointed",
        [
          Alcotest.test_case "fresh and resume" `Quick
            test_checkpointed_fresh_and_resume;
          Alcotest.test_case "partial resume" `Quick
            test_checkpointed_partial_resume;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_checkpointed_fingerprint_mismatch;
          Alcotest.test_case "slot-count mismatch" `Quick
            test_checkpointed_slot_count_mismatch;
          Alcotest.test_case "one record per block" `Quick
            test_checkpointed_block_records;
          Alcotest.test_case "per-slot journal refused" `Quick
            test_checkpointed_per_slot_refused;
          Alcotest.test_case "durability at the Young/Daly period" `Quick
            test_durability_due;
          Alcotest.test_case "every exit is durable" `Quick
            test_checkpointed_exit_durability;
          Alcotest.test_case "Monte-Carlo composed identity" `Quick
            test_montecarlo_resilience_identity;
        ] );
    ]
