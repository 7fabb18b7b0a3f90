(* Order statistics over host-time samples. *)

(* Linear interpolation between closest ranks, the definition Python's
   [statistics.quantiles(..., method="inclusive")] uses. *)
let quantile q = function
  | [] -> 0.0
  | samples ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile 0.5 samples
let sum = List.fold_left ( +. ) 0.0
