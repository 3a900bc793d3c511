(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (percentile xs 75.0 -. percentile xs 25.0) /. m

(* The tail percentile a workload reports: its declared percentile when
   at least ten samples lie beyond it, else the highest lower rung of the
   ladder that satisfies that rule (None below eleven samples). *)
let tail_percentile ~declared n =
  let ladder = List.filter (fun p -> p <= declared) [ 99.9; 99.5; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    ladder

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))
