type point = {
  x : float;
  two_speed : Core.Optimum.solution option;
  single_speed : Core.Optimum.solution option;
}

type t = {
  parameter : Parameter.t;
  label : string;
  rho : float;
  points : point list;
}

let solve_point ~env ~rho ~parameter x =
  let env, rho = Parameter.apply parameter ~env ~rho x in
  match Core.Bicrit.solve env ~rho with
  | None -> { x; two_speed = None; single_speed = None }
  | Some r ->
      {
        x;
        two_speed = Some r.best;
        single_speed = Core.Bicrit.single_speed_best env ~rho r;
      }

let run ?(label = "") ~env ~rho ~parameter ~xs () =
  {
    parameter;
    label;
    rho;
    points = List.map (solve_point ~env ~rho ~parameter) xs;
  }

let saving point =
  match (point.two_speed, point.single_speed) with
  | Some two, Some one ->
      let e1 = one.Core.Optimum.energy_overhead in
      Some ((e1 -. two.Core.Optimum.energy_overhead) /. e1)
  | None, _ | _, None -> None

let max_saving t =
  List.fold_left
    (fun acc p ->
      match saving p with Some s -> Float.max acc s | None -> acc)
    0. t.points

let feasible_fraction t =
  match t.points with
  | [] -> 0.
  | points ->
      let feasible =
        List.length (List.filter (fun p -> p.two_speed <> None) points)
      in
      float_of_int feasible /. float_of_int (List.length points)

let speeds_distinct_fraction t =
  let feasible, distinct =
    List.fold_left
      (fun (f, d) p ->
        match p.two_speed with
        | None -> (f, d)
        | Some s ->
            ( f + 1,
              if s.Core.Optimum.sigma1 <> s.Core.Optimum.sigma2 then d + 1
              else d ))
      (0, 0) t.points
  in
  if feasible = 0 then 0. else float_of_int distinct /. float_of_int feasible

let column_names =
  [ "x"; "sigma1"; "sigma2"; "w_opt"; "energy"; "time";
    "single_sigma"; "single_w_opt"; "single_energy" ]

let to_rows t =
  let of_solution = function
    | Some (s : Core.Optimum.solution) ->
        (s.sigma1, s.sigma2, s.w_opt, s.energy_overhead, s.time_overhead)
    | None -> (nan, nan, nan, nan, nan)
  in
  List.map
    (fun p ->
      let s1, s2, w, e, tm = of_solution p.two_speed in
      let u1, _, uw, ue, _ = of_solution p.single_speed in
      [| p.x; s1; s2; w; e; tm; u1; uw; ue |])
    t.points
