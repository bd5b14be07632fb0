(* Tests for the report library: ASCII tables, CSV, gnuplot emission
   and paper-vs-measured comparison records. *)

open Testutil

let test_table_render () =
  let t = Report.Table.create ~header:[ "name"; "value" ] () in
  Report.Table.add_row t [ "alpha"; "1" ];
  Report.Table.add_row t [ "b"; "22" ];
  let rendered = Report.Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (* header + separator + 2 rows + trailing newline split artifact *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* Right alignment: "value" column is 5 wide, so "1" is padded. *)
  Alcotest.(check bool) "alignment" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 0));
  Alcotest.(check bool) "separator dashes" true
    (String.for_all (fun c -> c = '-') (List.nth lines 1))

let test_table_left_align () =
  let t =
    Report.Table.create
      ~aligns:[ Report.Table.Left; Report.Table.Right ]
      ~header:[ "key"; "v" ] ()
  in
  Report.Table.add_row t [ "a"; "1" ];
  let lines = String.split_on_char '\n' (Report.Table.render t) in
  Alcotest.(check bool) "left-aligned cell" true
    (String.length (List.nth lines 2) > 0
    && (List.nth lines 2).[0] = 'a')

let test_table_float_rows () =
  let t = Report.Table.create ~header:[ "x"; "y" ] () in
  Report.Table.add_float_row t [ 1.5; nan ];
  let rendered = Report.Table.render t in
  Alcotest.(check bool) "NaN renders as dash" true
    (String.length rendered > 0
    && String.index_opt rendered '-' <> None);
  Alcotest.(check bool) "value rendered" true
    (Astring_contains.contains rendered "1.5")

let test_table_markdown () =
  let t = Report.Table.create ~header:[ "k"; "v" ] () in
  Report.Table.add_row t [ "a|b"; "1" ];
  let md = Report.Table.render_markdown t in
  Alcotest.(check bool) "header row" true
    (Astring_contains.contains md "| k | v |");
  Alcotest.(check bool) "alignment row" true
    (Astring_contains.contains md "| ---: | ---: |");
  Alcotest.(check bool) "pipe escaped" true
    (Astring_contains.contains md "a\\|b")

let test_table_errors () =
  check_raises_invalid "empty header" (fun () ->
      Report.Table.create ~header:[] ());
  let t = Report.Table.create ~header:[ "a"; "b" ] () in
  check_raises_invalid "row width mismatch" (fun () ->
      Report.Table.add_row t [ "only one" ]);
  check_raises_invalid "negative precision" (fun () ->
      Report.Table.add_float_row ~precision:(-1) t [ nan; 1. ]);
  Alcotest.(check string) "rejected rows leave the table as it was"
    "a  b\n----\n" (Report.Table.render t);
  check_raises_invalid "aligns mismatch" (fun () ->
      Report.Table.create ~aligns:[ Report.Table.Left ] ~header:[ "a"; "b" ] ())

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Report.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Report.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Report.Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Report.Csv.escape "a\nb");
  Alcotest.(check string) "row" "a,\"b,c\",d"
    (Report.Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_document () =
  let doc =
    Report.Csv.to_string ~header:[ "x"; "y" ]
      ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ]
  in
  Alcotest.(check string) "document" "x,y\n1,2\n3,4\n" doc

let test_csv_float_rows () =
  let doc =
    Report.Csv.of_float_rows ~header:[ "x"; "y" ]
      ~rows:[ [| 1.; nan |]; [| 0.5; 2. |] ]
  in
  let lines = String.split_on_char '\n' doc in
  Alcotest.(check string) "NaN becomes empty" "1," (List.nth lines 1);
  Alcotest.(check bool) "roundtrip precision" true
    (Astring_contains.contains (List.nth lines 2) "0.5")

let test_csv_write_file () =
  let path = Filename.temp_file "rexspeed" ".csv" in
  Report.Csv.write_file ~path "a,b\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file contents" "a,b" line

(* ------------------------------------------------------------------ *)
(* Gnuplot                                                             *)

let test_gnuplot_data_block () =
  let block =
    Report.Gnuplot.data_block ~comment:"test" ~columns:[ "x"; "y" ]
      ~rows:[ [| 1.; 2. |]; [| 3.; nan |] ]
      ()
  in
  let lines = String.split_on_char '\n' block in
  Alcotest.(check string) "comment line" "# test" (List.nth lines 0);
  Alcotest.(check string) "header line" "# x y" (List.nth lines 1);
  Alcotest.(check string) "data line" "1 2" (List.nth lines 2);
  Alcotest.(check string) "missing marker" "3 ?" (List.nth lines 3)

let test_gnuplot_script () =
  let script =
    Report.Gnuplot.script ~output:"out.png" ~title:"T" ~xlabel:"x"
      ~ylabel:"y" ~logx:true ~data_file:"d.dat"
      ~series:[ (2, "two"); (5, "one") ]
      ()
  in
  Alcotest.(check bool) "logscale present" true
    (Astring_contains.contains script "set logscale x");
  Alcotest.(check bool) "both series plotted" true
    (Astring_contains.contains script "using 1:2"
    && Astring_contains.contains script "using 1:5");
  Alcotest.(check bool) "missing marker configured" true
    (Astring_contains.contains script "set datafile missing")

(* ------------------------------------------------------------------ *)
(* Chart                                                               *)

let test_chart_basic () =
  let rendered =
    Report.Chart.render ~width:40 ~height:8 ~title:"demo"
      [
        {
          Report.Chart.label = "linear";
          points = [ (0., 0.); (1., 1.); (2., 2.) ];
          glyph = '*';
        };
      ]
  in
  Alcotest.(check bool) "title" true (Astring_contains.contains rendered "demo");
  Alcotest.(check bool) "glyph plotted" true
    (Astring_contains.contains rendered "*");
  Alcotest.(check bool) "legend" true
    (Astring_contains.contains rendered "* = linear");
  Alcotest.(check bool) "y max annotated" true
    (Astring_contains.contains rendered "2");
  (* Deterministic: same input, same output. *)
  let again =
    Report.Chart.render ~width:40 ~height:8 ~title:"demo"
      [
        {
          Report.Chart.label = "linear";
          points = [ (0., 0.); (1., 1.); (2., 2.) ];
          glyph = '*';
        };
      ]
  in
  Alcotest.(check string) "deterministic" rendered again

let test_chart_two_series_and_nan () =
  let rendered =
    Report.Chart.render ~width:40 ~height:8 ~title:"two"
      [
        { Report.Chart.label = "a"; points = [ (0., 1.); (1., nan); (2., 3.) ]; glyph = 'a' };
        { Report.Chart.label = "b"; points = [ (0., 2.); (2., 1.) ]; glyph = 'b' };
      ]
  in
  Alcotest.(check bool) "both legends" true
    (Astring_contains.contains rendered "a = a"
    && Astring_contains.contains rendered "b = b")

let test_chart_empty_and_degenerate () =
  let empty = Report.Chart.render ~title:"none" [] in
  Alcotest.(check bool) "placeholder" true
    (Astring_contains.contains empty "(no data)");
  (* Constant series: y span degenerates but must not crash. *)
  let flat =
    Report.Chart.render ~width:30 ~height:5 ~title:"flat"
      [ { Report.Chart.label = "f"; points = [ (0., 1.); (1., 1.) ]; glyph = '#' } ]
  in
  Alcotest.(check bool) "flat plotted" true
    (Astring_contains.contains flat "#");
  (match Report.Chart.render ~width:4 ~title:"w" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow width must raise")

let test_chart_logx_drops_nonpositive () =
  let rendered =
    Report.Chart.render ~width:40 ~height:6 ~logx:true ~title:"log"
      [
        {
          Report.Chart.label = "l";
          points = [ (0., 5.); (1e-6, 1.); (1e-2, 2.) ];
          glyph = '@';
        };
      ]
  in
  (* The x annotations must span the positive points only. *)
  Alcotest.(check bool) "axis from 1e-06" true
    (Astring_contains.contains rendered "1e-06");
  Alcotest.(check bool) "axis to 0.01" true
    (Astring_contains.contains rendered "0.01")

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)

let test_compare_numeric () =
  let e =
    Report.Compare.numeric ~experiment:"t" ~metric:"m" ~paper:2764.
      ~measured:2764.3 ()
  in
  Alcotest.(check bool) "within printed rounding" true
    (e.Report.Compare.verdict = Report.Compare.Exact);
  let e2 =
    Report.Compare.numeric ~experiment:"t" ~metric:"m" ~paper:2764.
      ~measured:2900. ()
  in
  (match e2.Report.Compare.verdict with
  | Report.Compare.Deviates _ -> ()
  | Report.Compare.Exact | Report.Compare.Shape _ ->
      Alcotest.fail "5% off must deviate");
  Alcotest.(check bool) "all_ok flags deviations" false
    (Report.Compare.all_ok [ e; e2 ]);
  Alcotest.(check bool) "all_ok accepts shapes" true
    (Report.Compare.all_ok
       [
         e;
         Report.Compare.entry ~experiment:"x" ~metric:"m" ~paper:"p"
           ~measured:"m" ~verdict:(Report.Compare.Shape "ok");
       ])

let test_compare_markdown () =
  let entries =
    [
      Report.Compare.entry ~experiment:"Fig 2" ~metric:"saving"
        ~paper:"35%" ~measured:"33%"
        ~verdict:(Report.Compare.Shape "band");
    ]
  in
  let md = Report.Compare.render_markdown entries in
  Alcotest.(check bool) "markdown table" true
    (Astring_contains.contains md "| Fig 2 | saving | 35% | 33% |")

(* ------------------------------------------------------------------ *)
(* Decimal writer against Printf                                       *)

(* Every value at every precision; the first few mismatches are shown
   with the value in hex, so a failure names its input exactly. *)
let differential ~name ~write ~reference ~precisions values =
  let b = Buffer.create 64 in
  let mismatches = ref 0 and shown = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun p ->
          Buffer.clear b;
          write b p v;
          let want = reference p v in
          if not (String.equal (Buffer.contents b) want) then begin
            incr mismatches;
            if !mismatches <= 5 then
              shown :=
                Printf.sprintf "%h at %d: %S, Printf %S" v p
                  (Buffer.contents b) want
                :: !shown
          end)
        precisions)
    values;
  if !mismatches > 0 then
    Alcotest.failf "%s: %d mismatches, e.g. %s" name !mismatches
      (String.concat "; " (List.rev !shown))

let signed values = Array.append values (Array.map Float.neg values)

(* nan of both signs, infinities, zeros, the smallest and largest
   subnormals, the smallest normal, max_float and a few plain values. *)
let special_values =
  signed
    [|
      nan; infinity; 0.; Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000f_ffff_ffff_ffffL; Float.min_float;
      Float.max_float; epsilon_float; 1.; 0.5; 1e-300; 1e300;
    |]

(* x and its neighbours [k] ulps away on either side. *)
let with_neighbours k x =
  let rec walk step x i acc =
    if i = 0 then acc else walk step (step x) (i - 1) (x :: acc)
  in
  Array.of_list
    ((x :: walk Float.succ (Float.succ x) k [])
    @ walk Float.pred (Float.pred x) k [])

(* Magnitudes 10^u with u uniform in [-10, 10], either sign. *)
let random_values ~seed count =
  let rng = Prng.Rng.create ~seed in
  Array.init count (fun _ ->
      let m = 10. ** Prng.Rng.uniform rng ~lo:(-10.) ~hi:10. in
      if Prng.Rng.bernoulli rng ~p:0.5 then -.m else m)

let fixed_digits = [ 0; 1; 2; 3; 4; 6 ]
let fixed_reference d v = Printf.sprintf "%.*f" d v

let test_fixed_special () =
  differential ~name:"%.*f specials" ~write:Report.Decimal.add_fixed
    ~reference:fixed_reference ~precisions:(List.init 18 Fun.id)
    special_values

(* Decimal ties (n + 0.5) / 10^d, which are rarely exact in binary,
   and their one-ulp neighbours, near zero and at the top of the
   integer path; and both sides of its 2^31 bound. *)
let test_fixed_ties_and_bound () =
  List.iter
    (fun d ->
      let scale = 10. ** float_of_int d in
      let tie n = (float_of_int n +. 0.5) /. scale in
      let ns =
        List.init 20_000 Fun.id @ List.init 2_000 (fun i -> 2147482648 + i)
      in
      let ties =
        Array.concat (List.map (fun n -> with_neighbours 1 (tie n)) ns)
      in
      let bound =
        Array.concat
          [
            with_neighbours 64 (2147483648. /. scale);
            with_neighbours 64 (2147483647.5 /. scale);
            with_neighbours 64 (2147483647. /. scale);
          ]
      in
      differential
        ~name:(Printf.sprintf "%%.%df ties and bound" d)
        ~write:Report.Decimal.add_fixed ~reference:fixed_reference
        ~precisions:[ d ]
        (signed (Array.append ties bound)))
    fixed_digits

let test_fixed_random () =
  differential ~name:"%.*f random" ~write:Report.Decimal.add_fixed
    ~reference:fixed_reference ~precisions:fixed_digits
    (random_values ~seed:17 1_000_000)

(* Every precision the integer path takes. *)
let general_precisions = List.init 8 succ
let general_reference p v = Printf.sprintf "%.*g" p v

(* Significand ties at p digits and values just under a power of ten,
   where rounding moves the exponent (999999.7 prints as 1e+06), from
   the %e range below 1e-4 to the one at 10^p. *)
let test_general_edges () =
  let rng = Prng.Rng.create ~seed:5 in
  let ties p =
    Array.init 2_500 (fun _ ->
        let low = 10. ** float_of_int (p - 1) in
        let n =
          float_of_int (Prng.Rng.int rng ~bound:(9 * int_of_float low))
        in
        let e = Prng.Rng.int rng ~bound:14 - 8 in
        with_neighbours 1
          ((low +. n +. 0.5) *. (10. ** float_of_int (e - p + 1))))
  in
  let powers = Array.init 15 (fun i -> 10. ** float_of_int (i - 7)) in
  let near_powers =
    Array.concat
      (Array.to_list
         (Array.map
            (fun x ->
              Array.concat
                [
                  with_neighbours 8 x;
                  Array.init 40 (fun j ->
                      x *. (1. -. (float_of_int j *. 1e-7)));
                ])
            powers))
  in
  differential ~name:"%.*g edges" ~write:Report.Decimal.add_general
    ~reference:general_reference ~precisions:(List.init 10 Fun.id)
    (signed (Array.concat [ special_values; near_powers ]));
  List.iter
    (fun p ->
      differential
        ~name:(Printf.sprintf "%%.%dg ties" p)
        ~write:Report.Decimal.add_general ~reference:general_reference
        ~precisions:[ p ]
        (signed (Array.concat (Array.to_list (ties p)))))
    general_precisions

let test_general_random () =
  differential ~name:"%.*g random" ~write:Report.Decimal.add_general
    ~reference:general_reference ~precisions:general_precisions
    (random_values ~seed:29 200_000)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "left align" `Quick test_table_left_align;
          Alcotest.test_case "float rows" `Quick test_table_float_rows;
          Alcotest.test_case "errors" `Quick test_table_errors;
        ] );
      ( "decimal",
        [
          Alcotest.test_case "%f specials" `Quick test_fixed_special;
          Alcotest.test_case "%f ties and 2^31 bound" `Quick
            test_fixed_ties_and_bound;
          Alcotest.test_case "%f 1M random" `Quick test_fixed_random;
          Alcotest.test_case "%g edges and ties" `Quick test_general_edges;
          Alcotest.test_case "%g 200k random x 8 precisions" `Quick
            test_general_random;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "document" `Quick test_csv_document;
          Alcotest.test_case "float rows" `Quick test_csv_float_rows;
          Alcotest.test_case "write file" `Quick test_csv_write_file;
        ] );
      ( "gnuplot",
        [
          Alcotest.test_case "data block" `Quick test_gnuplot_data_block;
          Alcotest.test_case "script" `Quick test_gnuplot_script;
        ] );
      ( "chart",
        [
          Alcotest.test_case "basics" `Quick test_chart_basic;
          Alcotest.test_case "two series and NaN" `Quick
            test_chart_two_series_and_nan;
          Alcotest.test_case "empty and degenerate" `Quick
            test_chart_empty_and_degenerate;
          Alcotest.test_case "logx" `Quick test_chart_logx_drops_nonpositive;
        ] );
      ( "compare",
        [
          Alcotest.test_case "numeric verdicts" `Quick test_compare_numeric;
          Alcotest.test_case "markdown" `Quick test_compare_markdown;
          Alcotest.test_case "table markdown" `Quick test_table_markdown;
        ] );
    ]
