type session = {
  stamp : int;  (* distinguishes sessions across per-domain caches *)
  sample_every : int;
  epoch : int Atomic.t;
  stores : Store.t list Atomic.t;
  counters : int Atomic.t array;
}

type dump = {
  buffers : Store.event array list;
  counters : (Span.counter * int) list;
  sample_every : int;
}

let current : session option Atomic.t = Atomic.make None
let stamps = Atomic.make 0

let enabled () = match Atomic.get current with None -> false | Some _ -> true

let start ?(sample_every = 64) () =
  if sample_every < 1 then
    invalid_arg "Tracer.start: sample_every must be >= 1";
  match Atomic.get current with
  | Some _ -> invalid_arg "Tracer.start: a trace session is already active"
  | None ->
      Atomic.set current
        (Some
           {
             stamp = 1 + Atomic.fetch_and_add stamps 1;
             sample_every;
             epoch = Atomic.make 0;
             stores = Atomic.make [];
             counters = Array.init Span.counter_count (fun _ -> Atomic.make 0);
           })

let finish () =
  match Atomic.get current with
  | None -> None
  | Some session ->
      Atomic.set current None;
      {
        buffers = List.rev_map Store.snapshot (Atomic.get session.stores);
        counters =
          List.map
            (fun c ->
              (c, Atomic.get session.counters.(Span.counter_index c)))
            Span.all_counters;
        sample_every = session.sample_every;
      }
      |> Option.some

(* The per-domain store, lazily created and registered on first
   emission; the stamp detects a stale store left over from an earlier
   session on this domain. *)
let local : (int * Store.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let store_for session =
  let slot = Domain.DLS.get local in
  match !slot with
  | Some (stamp, store) when stamp = session.stamp -> store
  | Some _ | None ->
      let store = Store.create () in
      let rec register () =
        let old = Atomic.get session.stores in
        if not (Atomic.compare_and_set session.stores old (store :: old))
        then register ()
      in
      register ();
      slot := Some (session.stamp, store);
      store

let push session ~kind ~id ~category ~label ~t =
  Store.push (store_for session)
    {
      Store.kind;
      epoch = Atomic.get session.epoch;
      id;
      category;
      label;
      t;
    }

(* The ambient task of the current domain: set for the dynamic extent
   of [with_task], read by the paper-phase emitters so simulator code
   never has to thread span ids explicitly. Each domain allocates its
   record once; entering and leaving a task only writes its fields. *)
type ambient = { mutable in_task : bool; mutable id : int; mutable sampled : bool }

let ambient : ambient Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { in_task = false; id = 0; sampled = false })

(* An epoch counts top-level regions only. A region opened inside a
   task (a sweep cell's solver, run sequentially) keeps the task's
   epoch. With more than one domain such a region takes the pool's
   nested path and never gets here; with one, this check does it. *)
let new_region () =
  match Atomic.get current with
  | None -> ()
  | Some session ->
      if not (Domain.DLS.get ambient).in_task then Atomic.incr session.epoch

(* Sampled tasks running now, on any domain. While there are none, no
   phase event can be recorded, so the emitters stop at this one
   atomic load instead of looking up their domain's ambient task. *)
let sampled_tasks = Atomic.make 0

let with_task ~index f =
  match Atomic.get current with
  | None -> f ()
  | Some session ->
      let a = Domain.DLS.get ambient in
      if a.in_task then f () (* nested region: the enclosing task's span stands *)
      else begin
        (* Sampling gates the task span itself, not just the phase
           events inside it: an unsampled task pays only these field
           writes, which is what keeps the traced hot path within the
           bench's overhead budget at 10^4-10^5 tasks per region. *)
        let sampled = index mod session.sample_every = 0 in
        a.in_task <- true;
        a.id <- index;
        a.sampled <- sampled;
        if sampled then begin
          let label = Span.category_name Span.Pool_task in
          push session ~kind:Store.B ~id:index ~category:Span.Pool_task ~label
            ~t:(Clock.now_s ());
          Atomic.incr sampled_tasks;
          Fun.protect
            ~finally:(fun () ->
              Atomic.decr sampled_tasks;
              push session ~kind:Store.E ~id:index ~category:Span.Pool_task
                ~label ~t:(Clock.now_s ());
              a.in_task <- false)
            f
        end
        else
          (* [Fun.protect] inlined: no closure per unsampled task. *)
          match f () with
          | v ->
              a.in_task <- false;
              v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              a.in_task <- false;
              Printexc.raise_with_backtrace e bt
      end

let with_span ~id ?label category f =
  match Atomic.get current with
  | None -> f ()
  | Some session ->
      let label =
        match label with Some l -> l | None -> Span.category_name category
      in
      push session ~kind:Store.B ~id ~category ~label ~t:(Clock.now_s ());
      Fun.protect
        ~finally:(fun () ->
          push session ~kind:Store.E ~id ~category ~label ~t:(Clock.now_s ()))
        f

let phase_event kind category =
  if Atomic.get sampled_tasks > 0 then
    match Atomic.get current with
    | None -> ()
    | Some session ->
        let a = Domain.DLS.get ambient in
        if a.in_task && a.sampled then
          push session ~kind ~id:a.id ~category
            ~label:(Span.category_name category)
            ~t:(Clock.now_s ())

let phase_begin category = phase_event Store.B category
let phase_end category = phase_event Store.E category

let complete ~id ?label category ~since =
  match Atomic.get current with
  | None -> ()
  | Some session ->
      let label =
        match label with Some l -> l | None -> Span.category_name category
      in
      push session ~kind:Store.B ~id ~category ~label ~t:since;
      push session ~kind:Store.E ~id ~category ~label ~t:(Clock.now_s ())

let count ?(n = 1) counter =
  match Atomic.get current with
  | None -> ()
  | Some session ->
      ignore
        (Atomic.fetch_and_add session.counters.(Span.counter_index counter) n)
