//! Seeded fault injection.
//!
//! [`JobChaos`] wraps pool jobs so a deterministic fraction panic or
//! stall in place. That is what the pool's panic isolation
//! (`jobs_panicked` conservation) and stall watchdog (`stalls_detected`,
//! `Stall`/`Recovered` trace events) are tested against.
//!
//! The control plane gets the same seeded-schedule idea without a
//! socket: the tests below run a simulation of the whole control loop —
//! several clients' cores against one server core, restarts through the
//! snapshot, over a link that drops, delays, tears, garbles and severs
//! replies and wedges the server, with a runnable load outside the
//! clients and clients that die, handed to the server as `/proc` samples
//! on its deadline, all drawn from one seed — and check the paper's
//! safety argument at every step. CI's `chaos` lane sweeps 10 000
//! seeds (`cargo test --release -p native-rt --lib -- --ignored
//! sweep_control_loop --nocapture`).

use std::time::Duration;

/// What [`JobChaos`] decided for one wrapped job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobFault {
    /// Run the wrapped work unchanged.
    Run,
    /// Panic instead of running the work — exercises the pool's
    /// catch_unwind isolation and `jobs_panicked` conservation.
    Panic,
    /// Sleep past the watchdog's stall threshold, then run the work —
    /// exercises stall detection and the `Stall`/`Recovered` events.
    Stall,
}

/// Seeded generator of misbehaving pool jobs.
///
/// Wraps ordinary closures so a deterministic fraction panic or stall
/// in place: one xorshift stream per instance, so the schedule is a pure
/// function of the seed.
/// The caller reads [`JobChaos::injected`] afterwards to know exactly
/// how many faults of each kind went in, which is what conservation
/// assertions (`submitted == jobs_run + jobs_panicked`) check against.
#[derive(Debug)]
pub struct JobChaos {
    rng: u64,
    panic_prob: f64,
    stall_prob: f64,
    stall_for: Duration,
    panics: u64,
    stalls: u64,
}

impl JobChaos {
    /// A schedule injecting panics and stalls with the given per-job
    /// probabilities (evaluated in that order; their sum should stay
    /// ≤ 1.0). Stalled jobs sleep `stall_for` before doing their work.
    pub fn new(seed: u64, panic_prob: f64, stall_prob: f64, stall_for: Duration) -> Self {
        JobChaos {
            rng: seed,
            panic_prob,
            stall_prob,
            stall_for,
            panics: 0,
            stalls: 0,
        }
    }

    /// Draws the next fault from the schedule and tallies it.
    pub fn next_fault(&mut self) -> JobFault {
        let r = crate::unit(&mut self.rng);
        if r < self.panic_prob {
            self.panics += 1;
            JobFault::Panic
        } else if r < self.panic_prob + self.stall_prob {
            self.stalls += 1;
            JobFault::Stall
        } else {
            JobFault::Run
        }
    }

    /// Wraps `work` with the next fault in the schedule. The returned
    /// closure is submitted to a pool like any other job; the returned
    /// [`JobFault`] tells the caller what will happen when it runs.
    pub fn wrap<F>(&mut self, work: F) -> (JobFault, Box<dyn FnOnce() + Send + 'static>)
    where
        F: FnOnce() + Send + 'static,
    {
        let fault = self.next_fault();
        let stall_for = self.stall_for;
        let job: Box<dyn FnOnce() + Send + 'static> = match fault {
            JobFault::Run => Box::new(work),
            JobFault::Panic => Box::new(|| panic!("chaos: injected job panic")),
            JobFault::Stall => Box::new(move || {
                std::thread::sleep(stall_for);
                work();
            }),
        };
        (fault, job)
    }

    /// `(panics, stalls)` injected so far.
    pub fn injected(&self) -> (u64, u64) {
        (self.panics, self.stalls)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use crate::control::{ControlCore, Sample, UdsServerConfig};
    use crate::snapshot::ServerSnapshot;
    use crate::stats::{Counter, Registry};
    use crate::supervise::{Action, ClientCore, Event, SupervisorConfig, Target};
    use crate::uds::complete_line;

    #[test]
    fn job_chaos_schedule_is_deterministic_and_tallied() {
        let mut a = JobChaos::new(7, 0.25, 0.25, Duration::from_millis(1));
        let mut b = JobChaos::new(7, 0.25, 0.25, Duration::from_millis(1));
        let faults: Vec<JobFault> = (0..200).map(|_| a.next_fault()).collect();
        assert_eq!(faults, (0..200).map(|_| b.next_fault()).collect::<Vec<_>>());
        let (panics, stalls) = a.injected();
        assert_eq!(
            panics,
            faults.iter().filter(|f| **f == JobFault::Panic).count() as u64
        );
        assert_eq!(
            stalls,
            faults.iter().filter(|f| **f == JobFault::Stall).count() as u64
        );
        assert!(panics > 0 && stalls > 0, "probabilities must bite");
        // A clean wrap runs the work; an injected panic never reaches it.
        let mut clean = JobChaos::new(1, 0.0, 0.0, Duration::from_millis(1));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let (fault, job) = clean.wrap(move || flag.store(true, Ordering::Release));
        assert_eq!(fault, JobFault::Run);
        job();
        assert!(ran.load(Ordering::Acquire));
    }

    // The control loop under seeded faults: client cores against one
    // server core on virtual time, over a link that severs, drops, tears,
    // garbles and delays replies, with server restarts and wedges and
    // silent clients. Every run is a pure function of its seed, and a
    // broken invariant names the seed.

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    const LEASE: Duration = ms(400);
    /// Under half the I/O timeout, as the shell keeps it.
    const HOLD: Duration = ms(60);
    const IO_TIMEOUT: Duration = ms(150);
    /// A degraded client's next round is this far off, or when its
    /// backoff (10 ms doubling to 80) runs out, if later.
    const ROUND: Duration = ms(50);
    /// Every fault ends by here. `CONVERGE` later every client publishes
    /// the server's target: one unanswered request's timeout, a full
    /// backoff, a degraded round and some link latency, with room to spare.
    const FAULTS_END: Duration = ms(1500);
    const CONVERGE: Duration = ms(500);
    /// A pid that only ever REPORTs: its line stays unclaimed.
    const STRAY: u32 = 999;

    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
        }

        fn below(&mut self, n: u64) -> u64 {
            crate::xorshift(&mut self.0) % n
        }

        fn unit(&mut self) -> f64 {
            crate::unit(&mut self.0)
        }

        fn time(&mut self, lo: Duration, hi: Duration) -> Duration {
            lo + (hi - lo).mul_f64(self.unit())
        }
    }

    /// What a run does besides what its clients decide.
    #[derive(Clone)]
    struct Plan {
        cpus: usize,
        weighted: bool,
        /// Each client's worker count, and whether it polls the `cpus` form.
        clients: Vec<(u32, bool)>,
        /// Odds per reply, tried in turn: sever, drop, tear and sever,
        /// garble, delay.
        odds: [f64; 5],
        /// Server deaths: when, down for how long, snapshot first or not.
        restarts: Vec<(Duration, Duration, bool)>,
        /// Spans in which the server does nothing.
        wedges: Vec<(Duration, Duration)>,
        /// Spans in which a client asks nothing: `(client, from, until)`.
        silences: Vec<(usize, Duration, Duration)>,
        /// When the stray pid reports.
        strays: Vec<Duration>,
        /// When the runnable threads outside the clients change, and to
        /// how many.
        loads: Vec<(Duration, u32)>,
        /// Clients whose process dies, and when.
        deaths: Vec<(usize, Duration)>,
    }

    impl Plan {
        fn drawn(seed: u64) -> Plan {
            let mut r = Rng::new(seed);
            let n = 2 + r.below(3) as usize;
            let span = |r: &mut Rng, most| {
                let at = r.time(ms(0), ms(1200));
                (at, (at + r.time(ms(50), most)).min(FAULTS_END))
            };
            Plan {
                cpus: 1 + r.below(8) as usize,
                weighted: r.below(2) == 0,
                clients: (0..n)
                    .map(|_| (1 + r.below(8) as u32, r.below(2) == 0))
                    .collect(),
                odds: [(); 5].map(|()| 0.08 * r.unit()),
                // One restart at most in each 600 ms slot: none overlap.
                restarts: (0..r.below(3))
                    .map(|i| {
                        let at = r.time(ms(100 + 600 * i), ms(600 + 600 * i));
                        (at, r.time(ms(0), ms(100)), r.below(2) == 0)
                    })
                    .collect(),
                wedges: (0..r.below(2)).map(|_| span(&mut r, ms(300))).collect(),
                silences: (0..r.below(3))
                    .map(|_| {
                        let (from, until) = span(&mut r, ms(800));
                        (r.below(n as u64) as usize, from, until)
                    })
                    .collect(),
                strays: (0..r.below(3)).map(|_| r.time(ms(0), FAULTS_END)).collect(),
                loads: (0..r.below(4))
                    .map(|_| (r.time(ms(0), FAULTS_END), r.below(10) as u32))
                    .collect(),
                deaths: (0..r.below(2))
                    .map(|_| (r.below(n as u64) as usize, r.time(ms(0), FAULTS_END)))
                    .collect(),
            }
        }

        /// `n` plain clients of 8 workers on 4 processors, nothing wrong.
        fn quiet(n: usize) -> Plan {
            Plan {
                cpus: 4,
                weighted: false,
                clients: vec![(8, false); n],
                odds: [0.0; 5],
                restarts: Vec::new(),
                wedges: Vec::new(),
                silences: Vec::new(),
                strays: Vec::new(),
                loads: Vec::new(),
                deaths: Vec::new(),
            }
        }
    }

    enum Ev {
        /// A client's application asks for its next round.
        Wake(usize),
        ToServer(u64, String),
        /// Reply bytes reach a client; `None` is the connection ending.
        ToClient(usize, u64, Option<String>),
        /// A client's I/O timeout for one request.
        Timeout(usize, u64),
        /// The server's next lease, hold or sample deadline.
        Timer,
        /// A connection the client closed ends at the server, after the
        /// frames it wrote before closing.
        HangUp(u64),
        /// The runnable threads outside the clients become this many.
        Load(u32),
        /// A client's process dies.
        Die(usize),
        /// The server dies, snapshotting first or not.
        Kill(bool),
        Boot,
        Stray,
    }

    struct Client {
        pid: u32,
        nworkers: u32,
        cpus: bool,
        core: ClientCore,
        registry: Registry,
        recovered: Counter,
        recovered_seen: u64,
        conn: Option<u64>,
        /// The request awaiting its reply.
        awaiting: Option<u64>,
        /// This round starts with a REPORT.
        reporting: bool,
        /// A REGISTER went out on this connection.
        registered_here: bool,
        retry_at: Duration,
        published: Option<Target>,
        healthy: Vec<u32>,
        /// The epochs this client has moved off.
        left: Vec<u64>,
        dead: bool,
    }

    struct Sim {
        seed: u64,
        plan: Plan,
        rng: Rng,
        base: Instant,
        t: Duration,
        queue: BinaryHeap<Reverse<(Duration, usize)>>,
        events: Vec<Option<Ev>>,
        server: Option<ControlCore>,
        snapshot: Option<ServerSnapshot>,
        /// The server's open connections, each with its client.
        live: BTreeMap<u64, usize>,
        /// The open connections whose client closed them: frames still in
        /// flight are served, their replies dropped.
        closing: BTreeSet<u64>,
        ids: u64,
        timer_at: Option<Duration>,
        /// When the stray pid's unclaimed report first arrived.
        stray_since: Option<Duration>,
        /// The runnable threads outside the clients now, and in the
        /// latest sample the live server took (0 before its first).
        load: u32,
        sampled_load: u32,
        clients: Vec<Client>,
    }

    impl Sim {
        fn new(seed: u64, plan: Plan) -> Sim {
            let mut rng = Rng::new(!seed);
            let mut clients = Vec::new();
            for (i, &(nworkers, cpus)) in plan.clients.iter().enumerate() {
                let mut cfg = SupervisorConfig::new("sim", nworkers);
                cfg.backoff_initial = ms(10);
                cfg.backoff_max = ms(80);
                cfg.seed = rng.below(u64::MAX);
                let (pid, registry) = (1000 + i as u32, Registry::new());
                clients.push(Client {
                    core: ClientCore::new(pid, &cfg, &registry),
                    recovered: registry.counter("restarts_recovered"),
                    registry,
                    pid,
                    nworkers,
                    cpus,
                    recovered_seen: 0,
                    conn: None,
                    awaiting: None,
                    reporting: false,
                    registered_here: false,
                    retry_at: Duration::ZERO,
                    published: None,
                    healthy: Vec::new(),
                    left: Vec::new(),
                    dead: false,
                });
            }
            let mut sim = Sim {
                seed,
                plan,
                rng,
                base: Instant::now(),
                t: Duration::ZERO,
                queue: BinaryHeap::new(),
                events: Vec::new(),
                server: None,
                snapshot: None,
                live: BTreeMap::new(),
                closing: BTreeSet::new(),
                ids: 0,
                timer_at: None,
                stray_since: None,
                load: 0,
                sampled_load: 0,
                clients,
            };
            sim.boot();
            sim
        }

        /// The clients' clock; the server's is `t` itself.
        fn now(&self) -> Instant {
            self.base + self.t
        }

        fn at(&mut self, t: Duration, ev: Ev) {
            self.queue.push(Reverse((t, self.events.len())));
            self.events.push(Some(ev));
        }

        /// `ev` after one link latency, plus `extra`.
        fn later(&mut self, extra: Duration, ev: Ev) {
            let latency = self.rng.time(Duration::from_micros(100), ms(2));
            self.at(self.t + latency + extra, ev);
        }

        #[track_caller]
        fn check(&self, ok: bool, what: impl FnOnce() -> String) {
            assert!(ok, "seed {} at {:?}: {}", self.seed, self.t, what());
        }

        fn wedged_until(&self) -> Option<Duration> {
            let t = self.t;
            self.plan
                .wedges
                .iter()
                .find(|w| w.0 <= t && t < w.1)
                .map(|w| w.1)
        }

        /// Runs the plan to its end and checks every client converged.
        fn run(mut self) -> Sim {
            for c in 0..self.clients.len() {
                let at = self.rng.time(ms(0), ms(20));
                self.at(at, Ev::Wake(c));
            }
            for (at, down, snapshot) in self.plan.restarts.clone() {
                self.at(at, Ev::Kill(snapshot));
                self.at(at + down, Ev::Boot);
            }
            for at in self.plan.strays.clone() {
                self.at(at, Ev::Stray);
            }
            for (at, n) in self.plan.loads.clone() {
                self.at(at, Ev::Load(n));
            }
            for (c, at) in self.plan.deaths.clone() {
                self.at(at, Ev::Die(c));
            }
            let end = FAULTS_END + CONVERGE;
            while let Some(&Reverse((t, id))) = self.queue.peek() {
                if t > end {
                    break;
                }
                self.queue.pop();
                self.t = t;
                self.check(id < 100_000, || "the run does not settle".into());
                let ev = self.events[id].take().expect("each event runs once");
                self.step(ev);
            }
            self.t = end;
            let server = self.server.as_mut().expect("up at the end");
            let assigned: Vec<(u32, u32, Vec<u32>)> = server
                .assignments()
                .map(|(pid, t, cpus)| (pid, t, cpus.collect()))
                .collect();
            for (c, client) in self.clients.iter().enumerate().filter(|(_, c)| !c.dead) {
                let want = assigned
                    .iter()
                    .find(|a| a.0 == client.pid)
                    .map(|(_, t, cpus)| (*t, client.cpus.then(|| cpus.clone())));
                self.check(want.is_some(), || format!("client {c} ends unregistered"));
                self.check(client.published == want, || {
                    format!("client {c} published {:?}, not {want:?}", client.published)
                });
            }
            self
        }

        fn step(&mut self, ev: Ev) {
            let t = self.t;
            match ev {
                Ev::Wake(c) | Ev::ToClient(c, ..) | Ev::Timeout(c, _) if self.clients[c].dead => {}
                Ev::Wake(c) => {
                    let silent = self
                        .plan
                        .silences
                        .iter()
                        .find(|s| s.0 == c && s.1 <= t && t < s.2);
                    if let Some(&(_, _, until)) = silent {
                        self.at(until, Ev::Wake(c));
                    } else if t < FAULTS_END && self.rng.below(5) == 0 {
                        let line = format!("jobs_run={}", self.rng.below(1000));
                        self.clients[c].reporting = true;
                        self.feed(c, Event::Report(&line));
                    } else {
                        self.poll(c);
                    }
                }
                Ev::ToServer(conn, frame) => match self.wedged_until() {
                    Some(until) => self.at(until, Ev::ToServer(conn, frame)),
                    None if self.live.contains_key(&conn) => self.wakeup(|server, now, out| {
                        server.frame(conn, frame.trim_end().as_bytes(), now, |reply| {
                            out.push((conn, reply.to_string()))
                        });
                    }),
                    None => {} // on a connection the server lost
                },
                Ev::ToClient(c, conn, raw) => {
                    let client = &mut self.clients[c];
                    if client.conn == Some(conn) && client.awaiting.take().is_some() {
                        let event = match raw.as_deref().map(complete_line) {
                            Some(Ok(line)) => Event::Reply(line),
                            _ => Event::Eof,
                        };
                        self.feed(c, event);
                    }
                }
                Ev::Timeout(c, request) => {
                    if self.clients[c].awaiting == Some(request) {
                        self.clients[c].awaiting = None;
                        self.feed(c, Event::Timeout);
                    }
                }
                Ev::Timer if self.timer_at == Some(t) => {
                    self.timer_at = self.wedged_until();
                    match self.timer_at {
                        Some(until) => self.at(until, Ev::Timer),
                        None => self.wakeup(|_, _, _| {}),
                    }
                }
                Ev::Timer => {}
                Ev::HangUp(conn) => match self.wedged_until() {
                    Some(until) => self.at(until, Ev::HangUp(conn)),
                    None => {
                        if self.live.remove(&conn).is_some() {
                            self.server.as_mut().expect("live").hang_up(conn);
                        }
                        self.closing.remove(&conn);
                    }
                },
                Ev::Load(n) => self.load = n,
                Ev::Die(c) => {
                    self.clients[c].dead = true;
                    self.close(c);
                }
                Ev::Kill(snapshot) => {
                    let server = self.server.take().expect("restarts do not overlap");
                    self.snapshot = snapshot.then(|| server.to_snapshot(t));
                    // Its connections end; a client waiting on one hears so.
                    for (conn, c) in std::mem::take(&mut self.live) {
                        if self.clients[c].conn == Some(conn) {
                            self.later(Duration::ZERO, Ev::ToClient(c, conn, None));
                        }
                    }
                    self.closing.clear();
                    (self.timer_at, self.stray_since, self.sampled_load) = (None, None, 0);
                }
                Ev::Boot => self.boot(),
                Ev::Stray if self.server.is_some() && self.wedged_until().is_none() => {
                    self.stray_since = self.stray_since.or(Some(t));
                    let frame = format!("REPORT {STRAY} jobs_run={}", self.rng.below(1000));
                    self.wakeup(|server, now, _| {
                        server.frame(0, frame.as_bytes(), now, |_| {});
                    });
                }
                Ev::Stray => {}
            }
        }

        /// A server comes up under an epoch drawn from the seed — at, above
        /// or below any before it — restoring its predecessor's snapshot.
        fn boot(&mut self) {
            let mut cfg = UdsServerConfig::new("sim", self.plan.cpus);
            cfg.lease_ttl = LEASE;
            cfg.account_system_load = true;
            cfg.weighted = self.plan.weighted;
            cfg.journal_cap = 0;
            let mut server = ControlCore::new(cfg, self.rng.below(u64::MAX) | 1);
            if let Some(snap) = self.snapshot.take() {
                server.restore(&snap, self.t);
                let (epoch, was) = (server.epoch(), snap.epoch);
                self.check(epoch > was, || {
                    format!("restored at epoch {epoch}, from {was}")
                });
            }
            self.server = Some(server);
            self.wakeup(|_, _, _| {});
        }

        fn poll(&mut self, c: usize) {
            let cpus = self.clients[c].cpus;
            self.feed(c, Event::Poll { cpus, hold: HOLD });
        }

        /// Hands `event` to client `c`, carries out what it asks, and
        /// checks the client's invariants.
        fn feed(&mut self, c: usize, event: Event<'_>) {
            let (from, now) = (self.clients[c].core.epoch(), self.now());
            self.clients[c].core.on(now, event);
            while let Some(action) = self.clients[c].core.next_action() {
                self.act(c, action);
            }
            let client = &self.clients[c];
            let to = client.core.epoch();
            if let Some(from) = from.filter(|&e| to != Some(e)) {
                let back = to.is_some_and(|e| client.left.contains(&e));
                self.check(!back, || format!("client {c} went back to epoch {to:?}"));
                self.clients[c].left.push(from);
            }
            let client = &mut self.clients[c];
            let seen = std::mem::replace(&mut client.recovered_seen, client.recovered.get());
            let bad = seen != client.recovered_seen && client.registered_here;
            self.check(!bad, || {
                format!("client {c} registered, then called it recovered")
            });
            let client = &mut self.clients[c];
            if client.reporting && client.awaiting.is_none() {
                client.reporting = false;
                self.poll(c);
            }
        }

        fn act(&mut self, c: usize, action: Action) {
            match action {
                Action::Connect => {
                    let conn = self.server.as_ref().map(|_| {
                        self.ids += 1;
                        self.live.insert(self.ids, c);
                        self.ids
                    });
                    (self.clients[c].conn, self.clients[c].registered_here) = (conn, false);
                    let event = conn.map_or(Event::ConnectFailed, |_| Event::Connected);
                    let now = self.now();
                    self.clients[c].core.on(now, event);
                }
                Action::Send(frame) => {
                    self.ids += 1;
                    let client = &mut self.clients[c];
                    client.registered_here |= frame.starts_with("REGISTER");
                    client.awaiting = Some(self.ids);
                    let conn = client.conn.expect("a frame goes out on a connection");
                    if self.live.contains_key(&conn) {
                        self.later(Duration::ZERO, Ev::ToServer(conn, frame));
                        self.at(self.t + IO_TIMEOUT, Ev::Timeout(c, self.ids));
                    } else {
                        self.later(Duration::ZERO, Ev::ToClient(c, conn, None));
                    }
                }
                Action::Close => self.close(c),
                Action::WaitUntil(at) => self.clients[c].retry_at = at - self.base,
                Action::Publish(target) => {
                    let n = self.clients[c].nworkers;
                    let t = target.as_ref().map_or(n, |t| t.0);
                    self.check((1..=n).contains(&t), || {
                        format!("client {c} of {n} got {t}")
                    });
                    let next = match target {
                        Some(_) => self.t + self.rng.time(ms(0), ms(10)),
                        None => (self.t + ROUND).max(self.clients[c].retry_at),
                    };
                    if target.is_some() {
                        self.clients[c].healthy.push(t);
                    }
                    self.clients[c].published = target;
                    self.at(next, Ev::Wake(c));
                }
            }
        }

        /// Client `c` closes its connection: the server serves what is
        /// still in flight on it, drops the replies, then hears the close.
        fn close(&mut self, c: usize) {
            if let Some(conn) = self.clients[c].conn.take() {
                if self.live.contains_key(&conn) && self.closing.insert(conn) {
                    // Behind every frame written before the close: a link
                    // latency is under 2 ms.
                    self.at(self.t + ms(2), Ev::HangUp(conn));
                }
            }
        }

        /// One server wakeup in the reactor's order — a sample if one is
        /// due, expire, the frame, release — with the server's invariants
        /// checked around it and its replies put on the link.
        fn wakeup(&mut self, op: impl FnOnce(&mut ControlCore, Duration, &mut Vec<(u64, String)>)) {
            let now = self.t;
            let mut server = self.server.take().expect("a wakeup of a live server");
            if server.sample_due(now) {
                let dead_pids = server
                    .pids()
                    .filter(|&pid| self.clients.iter().any(|c| c.dead && c.pid == pid))
                    .collect();
                let runnable_excluding = self.load;
                server.sample(
                    now,
                    Sample {
                        runnable_excluding,
                        dead_pids,
                    },
                );
                self.sampled_load = self.load;
                for &(pid, ..) in &server.registrations() {
                    let dead = self.clients.iter().any(|c| c.dead && c.pid == pid);
                    self.check(!dead, || {
                        format!("pid {pid} outlived a sample after its death")
                    });
                }
            }
            let before = server.registrations();
            server.expire(now);
            for &(pid, _, until, _) in &server.registrations() {
                self.check(until > now, || format!("pid {pid} outlived its lease"));
            }
            let mut out = Vec::new();
            op(&mut server, now, &mut out);
            server.release(now, |conn, reply| out.push((conn, reply.to_string())));
            let after = server.registrations();
            for &(pid, _, until, _) in &before {
                let early = until > now && !after.iter().any(|a| a.0 == pid);
                self.check(!early, || {
                    format!("pid {pid} left before its lease ran out")
                });
            }
            // The paper's bound: never more than the processors the load
            // outside leaves, except that every application keeps one.
            let free = (self.plan.cpus as u32).saturating_sub(self.sampled_load);
            let cap = free.max(after.len() as u32);
            let sum: u32 = after.iter().map(|a| a.3).sum();
            self.check(sum <= cap, || {
                format!("{after:?} overcommit {cap} processors")
            });
            for &(pid, n, _, t) in &after {
                self.check((1..=n).contains(&t), || format!("pid {pid} of {n} got {t}"));
            }
            // The cached partition is the one the registrations and their
            // stored weights give from scratch.
            let demands: Vec<ctl_core::AppDemand> = after
                .iter()
                .zip(server.weights())
                .map(|(&(_, processes, _, _), weight)| ctl_core::AppDemand {
                    processes,
                    weight: if self.plan.weighted { weight } else { 1.0 },
                })
                .collect();
            let fresh = ctl_core::partition(self.plan.cpus as u32, self.sampled_load, &demands);
            let cached: Vec<u32> = after.iter().map(|a| a.3).collect();
            self.check(cached == fresh, || {
                format!("cached targets {cached:?}, from scratch {fresh:?}")
            });
            if let Some(since) = self.stray_since {
                let (kept, due) = (server.has_report(STRAY), since + LEASE);
                self.check(kept == (self.t < due), || {
                    format!("kept {kept}, due {due:?}")
                });
                self.stray_since = self.stray_since.filter(|_| kept);
            }
            if let Some(at) = server.next_deadline() {
                if self.timer_at.map_or(true, |t| at < t) {
                    self.timer_at = Some(at);
                    self.at(at, Ev::Timer);
                }
            }
            self.server = Some(server);
            for (conn, reply) in out {
                self.deliver(conn, reply);
            }
        }

        /// Puts one reply on the link, which may sever, drop, tear,
        /// garble or delay it.
        fn deliver(&mut self, conn: u64, reply: String) {
            let Some(&c) = self
                .live
                .get(&conn)
                .filter(|_| !self.closing.contains(&conn))
            else {
                return;
            };
            let (roll, mut edge) = (self.rng.unit(), 0.0);
            let odds = self.plan.odds.iter().position(|p| {
                edge += p;
                roll < edge
            });
            let raw = match odds.filter(|_| self.t < FAULTS_END) {
                None => Some(reply),
                Some(0) => None,
                Some(1) => return,
                Some(2) => Some(reply[..reply.len() / 2].to_string()),
                Some(3) => Some(
                    reply
                        .chars()
                        .map(|ch| if ch.is_whitespace() { ch } else { '#' })
                        .collect(),
                ),
                Some(_) => {
                    let delay = self.rng.time(ms(20), ms(200));
                    return self.later(delay, Ev::ToClient(c, conn, Some(reply)));
                }
            };
            if raw.as_ref().map_or(true, |r| !r.ends_with('\n')) {
                self.live.remove(&conn);
                self.server.as_mut().expect("live").hang_up(conn);
            }
            self.later(Duration::ZERO, Ev::ToClient(c, conn, raw));
        }

        fn counter(&self, c: usize, name: &str) -> u64 {
            self.clients[c].registry.snapshot().counters[name]
        }
    }

    fn run_seeds(seeds: std::ops::Range<u64>) {
        for seed in seeds {
            Sim::new(seed, Plan::drawn(seed)).run();
        }
    }

    #[test]
    fn control_loop_holds_its_invariants_under_seeded_faults() {
        run_seeds(0..256);
    }

    /// CI's chaos lane: `cargo test --release -p native-rt --lib --
    /// --ignored sweep_control_loop --nocapture`.
    #[test]
    #[ignore]
    fn sweep_control_loop_invariants() {
        const SEEDS: u64 = 10_000;
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| run_seeds(SEEDS / 2..SEEDS));
            run_seeds(0..SEEDS / 2);
        });
        let took = started.elapsed().as_secs_f64();
        println!("control-loop sweep: {SEEDS} seeds in {took:.2} s");
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        // What every client heard: its healthy targets and the epochs it
        // moved off, in order.
        let heard = |seed| {
            let sim = Sim::new(seed, Plan::drawn(seed)).run();
            let heard = sim.clients.into_iter().map(|c| (c.healthy, c.left));
            heard.collect::<Vec<_>>()
        };
        let runs: Vec<_> = (0..8).map(heard).collect();
        assert_eq!(runs, (0..8).map(heard).collect::<Vec<_>>());
        assert!(runs.windows(2).all(|w| w[0] != w[1]));
    }

    /// Torn and corrupted replies never wedge a client: it keeps
    /// publishing targets through the noise, and counts each bad reply.
    #[test]
    fn client_survives_truncated_and_garbled_frames() {
        for seed in 0..16 {
            let mut plan = Plan::quiet(2);
            plan.odds = [0.0, 0.10, 0.15, 0.15, 0.0];
            let sim = Sim::new(seed, plan).run();
            for c in 0..2 {
                assert!(sim.clients[c].healthy.len() >= 10, "seed {seed}");
                assert!(sim.counter(c, "poll_errors") >= 1, "seed {seed}");
            }
        }
    }

    /// After a cold restart each client is on the new epoch, having
    /// reconnected and registered again.
    #[test]
    fn restart_bumps_epoch_and_client_re_registers() {
        for seed in 0..16 {
            let mut plan = Plan::quiet(3);
            plan.restarts = vec![(ms(600), ms(30), false)];
            let sim = Sim::new(seed, plan).run();
            for c in 0..3 {
                assert_eq!(sim.clients[c].left.len(), 1, "seed {seed}");
                assert_eq!(
                    sim.clients[c].core.last_restart(),
                    Some(crate::RestartKind::Cold)
                );
                for name in ["reconnects", "epoch_changes", "restarts_cold"] {
                    assert_eq!(sim.counter(c, name), 1, "seed {seed}: {name}");
                }
            }
        }
    }

    /// A client that stops asking loses its registration one lease after
    /// it was last heard (the invariants check the instant), and the other
    /// client's share grows back to the whole machine until it returns.
    #[test]
    fn wedged_client_lease_expires_and_share_returns() {
        for seed in 0..16 {
            let mut plan = Plan::quiet(2);
            plan.silences = vec![(0, ms(300), ms(1300))];
            let heard = Sim::new(seed, plan).run().clients.remove(1).healthy;
            assert!(heard.contains(&4), "seed {seed}: {heard:?}");
            assert_eq!(heard.last(), Some(&2), "seed {seed}: shared again");
        }
    }
}
