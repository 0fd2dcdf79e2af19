(* What one workload run reports.  [e2e] and [layer] are (name, value)
   pairs; the catalogue of names and units lives in main.ml. *)

type t = {
  attempted : int;
  failed : int;  (* failed operations plus failed correctness checks *)
  checks : (string * bool) list;
  e2e : (string * float) list;
  layer : (string * float) list;
}

let failed_checks t = List.filter (fun (_, ok) -> not ok) t.checks
