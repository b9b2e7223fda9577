(* Golden figures the benchmark's correctness gates compare against. *)

(* [Service.report_digest] per (workload, seed), for seeds 0-10: a change
   to the message schedule, the batching or the repair path moves it. *)
let tower : ((string * int) * int) list =
  [
    (("tower_storm", 0), 566829011191058265);
    (("tower_storm", 1), 4369445783719552743);
    (("tower_storm", 2), 3038256507278590786);
    (("tower_storm", 3), 3417902108820539773);
    (("tower_storm", 4), 593814065756777077);
    (("tower_storm", 5), 1183623107338498979);
    (("tower_storm", 6), 2786113850614401169);
    (("tower_storm", 7), 2218926747638597381);
    (("tower_storm", 8), 1741421778052925416);
    (("tower_storm", 9), 3118276976398897595);
    (("tower_storm", 10), 3642737796529130066);
    (("tower_wide", 0), 2422722033939604334);
    (("tower_wide", 1), 1269189428213931360);
    (("tower_wide", 2), 2134080073397133664);
    (("tower_wide", 3), 2770449086637737268);
    (("tower_wide", 4), 43200634823025548);
    (("tower_wide", 5), 3469140805734080209);
    (("tower_wide", 6), 2734349856776508964);
    (("tower_wide", 7), 1182938259039001723);
    (("tower_wide", 8), 1095886201185696099);
    (("tower_wide", 9), 3846858338439567268);
    (("tower_wide", 10), 1841358612021192311);
  ]
