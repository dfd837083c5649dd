(* Tests for the utility substrate: PRNG determinism, statistics, ring
   buffers — including qcheck properties on the ring buffer invariants. *)

open I432_util

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create ~seed:7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0))

let test_prng_float_range () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_exponential_positive () =
  let t = Prng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential t ~mean:5.0 > 0.0)
  done

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential t ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 3.0" mean)
    true
    (mean > 2.8 && mean < 3.2)

let test_prng_choose () =
  let t = Prng.create ~seed:19 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let v = Prng.choose t arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) arr)
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:23 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ---------------- Stats ---------------- *)

let test_jain_equal () =
  check_float "equal shares" 1.0 (Stats.jain_fairness [| 5.0; 5.0; 5.0 |])

let test_jain_skewed () =
  let j = Stats.jain_fairness [| 1.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "one-taker ~1/3" true (abs_float (j -. (1.0 /. 3.0)) < 1e-9)

let test_jain_all_zero () =
  check_float "degenerate zeros" 1.0 (Stats.jain_fairness [| 0.0; 0.0 |])

(* ---------------- Table ---------------- *)

let test_table_renders () =
  let s =
    Table.render ~title:"T" ~header:[ "a"; "b" ]
      ~aligns:[ Table.Left; Table.Right ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  Alcotest.(check bool) "mentions header" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "yy" && contains "22")

let test_table_ragged () =
  Alcotest.check_raises "ragged rows" (Invalid_argument "Table.render: ragged rows")
    (fun () ->
      ignore
        (Table.render ~title:"T" ~header:[ "a"; "b" ]
           ~aligns:[ Table.Left; Table.Right ]
           [ [ "only-one" ] ]))

let test_fmt_us () = Alcotest.(check string) "65us" "65.00" (Table.fmt_us 65_000)

(* ---------------- Ring buffer ---------------- *)

let test_ring_fifo_order () =
  let rb = Ring_buffer.create 4 in
  Ring_buffer.push rb 1;
  Ring_buffer.push rb 2;
  Ring_buffer.push rb 3;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ring_buffer.pop rb);
  Ring_buffer.push rb 4;
  Ring_buffer.push rb 5;
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 4; 5 ]
    (Ring_buffer.to_list rb)

let test_ring_full () =
  let rb = Ring_buffer.create 2 in
  Ring_buffer.push rb 1;
  Ring_buffer.push rb 2;
  Alcotest.(check bool) "full" true (Ring_buffer.is_full rb);
  Alcotest.check_raises "push on full" (Invalid_argument "Ring_buffer.push: full")
    (fun () -> Ring_buffer.push rb 3)

let test_ring_empty () =
  let rb = Ring_buffer.create 2 in
  Alcotest.(check (option int)) "pop empty" None (Ring_buffer.pop rb);
  Alcotest.(check (option int)) "peek empty" None (Ring_buffer.peek rb)

let test_ring_clear () =
  let rb = Ring_buffer.create 3 in
  Ring_buffer.push rb 1;
  Ring_buffer.clear rb;
  Alcotest.(check bool) "empty after clear" true (Ring_buffer.is_empty rb)

let test_ring_wraparound () =
  let rb = Ring_buffer.create 3 in
  for round = 0 to 9 do
    Ring_buffer.push rb round;
    Alcotest.(check (option int)) "wrap pop" (Some round) (Ring_buffer.pop rb)
  done

(* qcheck: a ring buffer driven by an arbitrary push/pop script behaves like
   a FIFO queue. *)
let prop_ring_matches_queue =
  QCheck2.Test.make ~name:"ring buffer behaves as bounded FIFO" ~count:300
    QCheck2.Gen.(list (pair bool small_int))
    (fun script ->
      let rb = Ring_buffer.create 8 in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then
            if Ring_buffer.is_full rb then true
            else begin
              Ring_buffer.push rb v;
              Queue.push v q;
              Ring_buffer.length rb = Queue.length q
            end
          else
            let expected = if Queue.is_empty q then None else Some (Queue.pop q) in
            Ring_buffer.pop rb = expected)
        script)

let prop_jain_bounds =
  QCheck2.Test.make ~name:"Jain index in (0,1]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_bound_inclusive 100.0))
    (fun xs ->
      let j = Stats.jain_fairness (Array.of_list xs) in
      j > 0.0 && j <= 1.0 +. 1e-9)

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int invalid", `Quick, test_prng_int_invalid);
    ("prng float range", `Quick, test_prng_float_range);
    ("prng exponential positive", `Quick, test_prng_exponential_positive);
    ("prng exponential mean", `Quick, test_prng_exponential_mean);
    ("prng choose", `Quick, test_prng_choose);
    ("prng shuffle permutation", `Quick, test_prng_shuffle_permutation);
    ("jain equal", `Quick, test_jain_equal);
    ("jain skewed", `Quick, test_jain_skewed);
    ("jain all zero", `Quick, test_jain_all_zero);
    ("table renders", `Quick, test_table_renders);
    ("table ragged", `Quick, test_table_ragged);
    ("fmt us", `Quick, test_fmt_us);
    ("ring fifo order", `Quick, test_ring_fifo_order);
    ("ring full", `Quick, test_ring_full);
    ("ring empty", `Quick, test_ring_empty);
    ("ring clear", `Quick, test_ring_clear);
    ("ring wraparound", `Quick, test_ring_wraparound);
    QCheck_alcotest.to_alcotest prop_ring_matches_queue;
    QCheck_alcotest.to_alcotest prop_jain_bounds;
  ]
