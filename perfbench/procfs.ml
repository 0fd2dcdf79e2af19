(* Per-process CPU time and memory from /proc (Linux). *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents buf)

(* /proc reports CPU time in USER_HZ ticks, 100 per second on Linux *)
let ticks_per_s = 100.

(* utime + stime in seconds; fields 14 and 15 of /proc/<pid>/stat,
   counted after the parenthesised command name *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          let rest =
            String.sub s (i + 2) (String.length s - i - 2)
            |> String.split_on_char ' '
            |> Array.of_list
          in
          match
            (int_of_string_opt rest.(11), int_of_string_opt rest.(12))
          with
          | Some u, Some st -> Some (float_of_int (u + st) /. ticks_per_s)
          | _ | (exception Invalid_argument _) -> None))

(* a "Name:   N kB" line of /proc/<pid>/status, in MB *)
let status_mb pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = field ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)

let peak_rss_mb pid = status_mb (string_of_int pid) "VmHWM"

let rss_mb pid = status_mb (string_of_int pid) "VmRSS"

(* Time the process's main thread has run, from the first field of
   /proc/<pid>/schedstat: nanoseconds, for intervals too short for the
   10 ms ticks of [cpu_s]. *)
let run_s pid =
  match read_file (Printf.sprintf "/proc/%d/schedstat" pid) with
  | None -> None
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> Option.map (fun n -> float_of_int n /. 1e9) (int_of_string_opt ns)
      | [] -> None)

(* CPU time of this process, every thread and domain included *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let self_peak_rss_mb () =
  Option.value ~default:0. (status_mb "self" "VmHWM")

(* The host's CPU time in ticks from the "cpu" line of /proc/stat:
   (steal, total).  The total sums the first eight states (user to
   steal); guest time is already counted in user. *)
let host_cpu () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      match String.split_on_char '\n' s with
      | line :: _ -> (
          match
            String.split_on_char ' ' line
            |> List.filter (fun f -> f <> "")
            |> List.tl |> List.map int_of_string_opt
          with
          | ticks when List.for_all Option.is_some ticks ->
              let ticks = List.map Option.get ticks in
              let steal = Option.value ~default:0 (List.nth_opt ticks 7) in
              (steal, List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) ticks))
          | _ | (exception Failure _) -> (0, 0))
      | [] -> (0, 0))

(* share of the host's CPU time stolen by the hypervisor between two
   [host_cpu] readings, in percent *)
let steal_pct (s0, t0) (s1, t1) =
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  else 0.
