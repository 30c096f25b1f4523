(* Configuration text to live control planes, the only way the runtime
   builds one: lower the text onto commands and run them through a
   router's [exec] ([Config.apply]). Shared by the test executables. *)

let ok = function Ok v -> v | Error e -> failwith e

let router ?trace_capacity ?audit_every text =
  let cfg = ok (Config.parse text) in
  let r = Runtime.Router.create ?trace_capacity ?audit_every () in
  ok (Config.apply cfg ~exec:(Runtime.Router.exec r ~now:0.));
  (cfg, r)

(* The sole link's engine of a one-link configuration. *)
let engine ?trace_capacity ?audit_every text =
  let _, r = router ?trace_capacity ?audit_every text in
  match Runtime.Router.links r with
  | [ (_, eng) ] -> eng
  | links -> failwith (Printf.sprintf "%d links, not one" (List.length links))

(* Restart check: [r]'s checkpoint must replay strictly into a fresh
   router and reach the same configuration fingerprint. *)
let replays_to_same_fingerprint r =
  let fresh = Runtime.Router.create () in
  List.for_all
    (fun (_, _, res) -> Result.is_ok res)
    (Runtime.Router.exec_script fresh (Runtime.Router.checkpoint r))
  && Runtime.Router.config_fingerprint fresh
     = Runtime.Router.config_fingerprint r
