type t = int Atomic.t array

let create () = Array.init Span.counter_count (fun _ -> Atomic.make 0)

let bump ?(n = 1) t counter =
  ignore (Atomic.fetch_and_add t.(Span.counter_index counter) n : int);
  Tracer.count ~n counter

let get t counter = Atomic.get t.(Span.counter_index counter)
