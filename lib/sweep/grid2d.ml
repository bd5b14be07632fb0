type cell = {
  x : float;
  y : float;
  two_speed : Core.Optimum.solution option;
  single_speed : Core.Optimum.solution option;
}

type t = {
  label : string;
  rho : float;
  x_parameter : Parameter.t;
  y_parameter : Parameter.t;
  cells : cell array array;
}

let run ?(label = "") ?pool ?journal ?on_resume ~env ~rho
    ~x:(x_parameter, xs) ~y:(y_parameter, ys) () =
  if x_parameter = y_parameter then
    invalid_arg "Grid2d.run: the two axes must differ";
  if xs = [] || ys = [] then invalid_arg "Grid2d.run: empty axis";
  let solve x y =
    let env, rho = Parameter.apply x_parameter ~env ~rho x in
    let env, rho = Parameter.apply y_parameter ~env ~rho y in
    match Core.Bicrit.solve env ~rho with
    | None -> { x; y; two_speed = None; single_speed = None }
    | Some r ->
        {
          x;
          y;
          two_speed = Some r.best;
          single_speed = Core.Bicrit.single_speed_best env ~rho r;
        }
  in
  (* One task per cell, flattened row-major onto the pool; slot i is
     always cell (i / nx, i mod nx), so the reassembled grid is
     bit-identical to the nested-List.map sequential construction —
     and each cell a pure function of its slot, so journaled runs
     resume cell by cell. *)
  let xs = Array.of_list xs and ys = Array.of_list ys in
  let nx = Array.length xs and ny = Array.length ys in
  let flat =
    Resilience.Checkpointed.init_array ?pool ?journal ?on_resume (nx * ny)
      (fun i ->
        Tracing.Tracer.with_span ~id:i Tracing.Span.Sweep_cell (fun () ->
            solve xs.(i mod nx) ys.(i / nx)))
  in
  let cells = Array.init ny (fun row -> Array.sub flat (row * nx) nx) in
  { label; rho; x_parameter; y_parameter; cells }

let saving cell =
  match (cell.two_speed, cell.single_speed) with
  | Some two, Some one ->
      let e1 = one.Core.Optimum.energy_overhead in
      (* e1 = 0 (all-zero power model) would make the ratio nan/inf
         and leak silently into CSV rows and heatmaps. *)
      if Float.equal e1 0. then None
      else Some ((e1 -. two.Core.Optimum.energy_overhead) /. e1)
  | None, _ | _, None -> None

let fold_cells f init t =
  Array.fold_left (Array.fold_left f) init t.cells

let max_saving t =
  fold_cells
    (fun acc cell ->
      match saving cell with
      | None -> acc
      | Some s -> begin
          match acc with
          | Some (_, _, best) when best >= s -> acc
          | Some _ | None -> Some (cell.x, cell.y, s)
        end)
    None t

let feasible_fraction t =
  let feasible, total =
    fold_cells
      (fun (f, n) cell ->
        ((if cell.two_speed <> None then f + 1 else f), n + 1))
      (0, 0) t
  in
  if total = 0 then 0. else float_of_int feasible /. float_of_int total

let column_names =
  [ "x"; "y"; "saving"; "sigma1"; "sigma2"; "w_opt"; "energy" ]

let to_rows t =
  fold_cells
    (fun acc cell ->
      let s1, s2, w, e =
        match cell.two_speed with
        | Some b ->
            ( b.Core.Optimum.sigma1, b.Core.Optimum.sigma2,
              b.Core.Optimum.w_opt, b.Core.Optimum.energy_overhead )
        | None -> (nan, nan, nan, nan)
      in
      [| cell.x; cell.y; Option.value ~default:nan (saving cell); s1; s2; w; e |]
      :: acc)
    [] t
  |> List.rev

let render_heatmap ?(levels = " .:-=+*#%@") ~value t =
  if String.length levels < 2 then
    invalid_arg "Grid2d.render_heatmap: need at least two levels";
  let values =
    fold_cells
      (fun acc cell ->
        match value cell with Some v -> v :: acc | None -> acc)
      [] t
  in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Printf.sprintf "%s: %s (x) vs %s (y)\n" t.label
       (Parameter.name t.x_parameter)
       (Parameter.name t.y_parameter));
  (match values with
  | [] -> Buffer.add_string buffer "(no feasible cells)\n"
  | v :: rest ->
      let lo = List.fold_left Float.min v rest in
      let hi = List.fold_left Float.max v rest in
      let span = if hi > lo then hi -. lo else 1. in
      let shade v =
        let idx =
          int_of_float
            (Float.round
               ((v -. lo) /. span *. float_of_int (String.length levels - 1)))
        in
        levels.[Int.max 0 (Int.min (String.length levels - 1) idx)]
      in
      let rows = Array.length t.cells in
      for row = rows - 1 downto 0 do
        let y = t.cells.(row).(0).y in
        Buffer.add_string buffer (Printf.sprintf "%10.4g |" y);
        Array.iter
          (fun cell ->
            Buffer.add_char buffer
              (match value cell with Some v -> shade v | None -> '?'))
          t.cells.(row);
        Buffer.add_char buffer '\n'
      done;
      let first_row = t.cells.(0) in
      let x_lo = first_row.(0).x in
      let x_hi = first_row.(Array.length first_row - 1).x in
      Buffer.add_string buffer
        (Printf.sprintf "%10s +%s\n" "" (String.make (Array.length first_row) '-'));
      Buffer.add_string buffer
        (Printf.sprintf "%10s  x: %.4g .. %.4g; shading %.4g (%c) .. %.4g (%c); ? = infeasible\n"
           "" x_lo x_hi lo levels.[0] hi levels.[String.length levels - 1]));
  Buffer.contents buffer
