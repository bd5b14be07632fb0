(* Hash table + intrusive doubly-linked recency list. The list runs
   from most- to least-recently used; eviction pops the tail. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards the MRU end *)
  mutable next : 'a node option;  (* towards the LRU end *)
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Server.Lru.create: capacity < 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some s -> s.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  match t.tail with None -> t.tail <- Some node | Some _ -> ()

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value
  | None -> None

let add t key value =
  if t.cap > 0 then
    match Hashtbl.find_opt t.table key with
    | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
    | None ->
        if Hashtbl.length t.table >= t.cap then begin
          match t.tail with
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key
          | None -> ()
        end;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node

let length t = Hashtbl.length t.table
let capacity t = t.cap
