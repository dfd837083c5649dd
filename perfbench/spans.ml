(* Host-time spans recorded by the benchmark around each call it makes
   into a layer's public function.  Spans are kept in memory, written out
   at exit, and self time (a span's duration minus the part its children
   cover) is derived from them.  A disabled recorder records nothing and
   costs one branch per call, so untraced runs measure the program alone. *)

type span = {
  id : int;
  name : string;
  op : int;  (** spans of one operation share this id *)
  parent : int;  (** 0 = root *)
  start_s : float;
  mutable stop_s : float;
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of open spans, innermost first *)
}

let create ~enabled = { enabled; next = 1; spans = []; open_ = [] }
let enabled t = t.enabled
let now () = Unix.gettimeofday ()

(* Open a span under the innermost open one; returns its id (0 when
   disabled).  Spans opened inside a process body nest under the
   machine-run span that was open when the process ran. *)
let enter t ?(op = 0) name =
  if not t.enabled then 0
  else begin
    let id = t.next in
    let parent = match t.open_ with p :: _ -> p | [] -> 0 in
    t.next <- id + 1;
    t.spans <-
      { id; name; op; parent; start_s = now (); stop_s = nan } :: t.spans;
    t.open_ <- id :: t.open_;
    id
  end

let close t id =
  if id <> 0 then begin
    t.open_ <- List.filter (fun o -> o <> id) t.open_;
    match t.spans with
    | s :: _ when s.id = id -> s.stop_s <- now ()
    | spans -> (
      match List.find_opt (fun s -> s.id = id) spans with
      | Some s -> s.stop_s <- now ()
      | None -> invalid_arg "Spans.close: unknown span")
  end

let with_span t ?op name f =
  let id = enter t ?op name in
  Fun.protect ~finally:(fun () -> close t id) f

let spans t = List.rev t.spans

(* Per-name (count, total seconds, self seconds), sorted by name.  Self
   time subtracts each child's duration from its parent's. *)
let summary t =
  let all = spans t in
  let dur s = s.stop_s -. s.start_s in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let n, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. dur s, selfs +. self))
    all;
  List.sort compare
    (Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc)
       by_name [])

(* Durations in seconds of every span named [name], in start order. *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop_s -. s.start_s) else None)
    (spans t)

(* One JSON object per line: id, name, op, parent, start, end (seconds
   relative to the first span). *)
let write t path =
  match spans t with
  | [] -> ()
  | first :: _ as all ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
              s.id s.name s.op s.parent
              (s.start_s -. first.start_s)
              (s.stop_s -. first.start_s))
          all)
