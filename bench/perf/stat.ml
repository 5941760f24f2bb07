(* Order statistics over small samples. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if Int.equal n 0 then 0.0
  else if Int.equal (n mod 2) 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartile cut points as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method). *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then
    let x = if Int.equal ld 1 then a.(0) else 0.0 in
    (x, x, x)
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* The interquartile range as a share of the median: the spread the
   benchmark's bounds are held against. *)
let spread xs =
  let m = median xs in
  if Float.equal m 0.0 then 0.0
  else
    let q1, _, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs m

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []
