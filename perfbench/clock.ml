(* Wall-clock and process readings.  Every timing in the benchmark comes
   from [now], a monotonic wall clock (CLOCK_MONOTONIC via bechamel);
   nothing here reads [Sys.time], which is process CPU time. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by the calling domain so far: minor allocations plus
   direct major allocations (large arrays), without double counting
   promotions. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()], adding the words it allocated to [acc]. *)
let counting acc f =
  let w0 = alloc_words () in
  let r = f () in
  acc := !acc +. (alloc_words () -. w0);
  r

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
              ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %f kB" (fun kb -> kb /. 1024.0)
            | _ -> scan ()
          in
          scan ())
