//! The traced replay: a single-threaded re-execution of one workload
//! that drives each layer's public functions in the order the sim's
//! batched loop uses them and times every call from outside.
//!
//! Per generator tick: pulse the relocation protocol, tick every engine
//! (purge, spill check), evaluate the coordinator on its timer, generate
//! the tick, classify and route it, ship each engine's batch through the
//! wire codec, and hand the decoded batch to the engine's join. Spans
//! are taken per tick and per call, never per tuple. A relocation round
//! runs the same steps the sim executes, with the sim's modeled network
//! delay between extraction and installation, and its `InstallStates`
//! travels through the wire codec. At the end, spilled segments are
//! forwarded to their partition's owner and every engine runs its
//! cleanup phase.

use std::time::{Duration, Instant};

use dcape_cluster::coordinator::GlobalCoordinator;
use dcape_cluster::messages::{GroupTransfer, ToEngine};
use dcape_cluster::placement::{PlacementMap, Route};
use dcape_cluster::relocation::Action;
use dcape_cluster::runtime::sim::SimConfig;
use dcape_cluster::stats::ClusterStats;
use dcape_cluster::strategy::Decision;
use dcape_cluster::wire::{decode_msg, encode_msg, WireMsg};
use dcape_cluster::SplitOperator;
use dcape_common::batch::TupleBatch;
use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{EngineId, PartitionId};
use dcape_common::time::{PeriodicTimer, VirtualTime};
use dcape_engine::engine::{ExtractedGroup, SpillOutcome};
use dcape_engine::{CountingSink, Mode, QueryEngine};
use dcape_streamgen::StreamSetGenerator;

/// Everything one traced replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trace {
    /// Wall time of the whole replay, construction to cleanup.
    pub total: Duration,
    /// `StreamSetGenerator::tick_batch`.
    pub streamgen: Duration,
    /// Tuples generated.
    pub streamgen_tuples: u64,
    /// `SplitOperator::classify` + `PlacementMap::route` + `TupleBatch::push`.
    pub split: Duration,
    /// Tuples buffered at paused splits.
    pub split_buffered: u64,
    /// `encode_msg` of data batches and relocation transfers.
    pub wire_encode: Duration,
    /// `decode_msg` of the same messages.
    pub wire_decode: Duration,
    /// Encoded message bytes.
    pub wire_bytes: u64,
    /// `QueryEngine::process_batch`.
    pub join: Duration,
    /// Tuples joined.
    pub join_tuples: u64,
    /// Results the join emitted at run time.
    pub join_results: u64,
    /// Results delivered before cleanup (join plus reactivation).
    pub runtime_results: u64,
    /// Largest `memory_used` of any engine after a join call.
    pub join_peak_state_bytes: u64,
    /// `tick_with_horizon` calls that did not spill.
    pub purge: Duration,
    /// `tick_with_horizon` calls that spilled, plus forced spills.
    pub spill: Duration,
    /// Spill operations.
    pub spill_events: u64,
    /// Accounted state bytes spilled.
    pub spill_state_bytes: u64,
    /// Encoded bytes written by spills.
    pub spill_bytes_written: u64,
    /// Segment forwarding plus `QueryEngine::cleanup`.
    pub cleanup: Duration,
    /// Results produced by cleanup.
    pub cleanup_results: u64,
    /// Tuples scanned by cleanup merges.
    pub cleanup_scanned_tuples: u64,
    /// Encoded spill bytes read back by cleanup.
    pub cleanup_bytes_read: u64,
    /// `QueryEngine::report` + `GlobalCoordinator::evaluate`.
    pub coordinator: Duration,
    /// Coordinator decisions other than `Decision::None`.
    pub coordinator_decisions: u64,
    /// Relocation steps outside the wire codec: protocol polling,
    /// pause, partition selection, extraction, installation, commits
    /// and remapping.
    pub relocation_steps: Duration,
    /// Wire time of relocation transfers (also counted in `wire_*`).
    pub relocation_wire: Duration,
    /// `QueryEngine::begin_outbound`.
    pub relocation_extract: Duration,
    /// `QueryEngine::install_groups_for_round`.
    pub relocation_install: Duration,
    /// Completed relocation rounds.
    pub relocation_rounds: u64,
    /// Accounted state bytes relocated.
    pub relocation_state_bytes: u64,
    /// Encoded `InstallStates` bytes.
    pub relocation_wire_bytes: u64,
}

impl Trace {
    /// Source side of a live runtime: generate, route, encode.
    pub fn source(&self) -> Duration {
        self.streamgen + self.split + self.wire_encode
    }

    /// Engine side of a live runtime: decode, join, tick, cleanup.
    pub fn engine(&self) -> Duration {
        self.wire_decode + self.join + self.purge + self.spill + self.cleanup
    }

    /// Whole relocation rounds, wire codec included.
    pub fn relocation(&self) -> Duration {
        self.relocation_steps + self.relocation_wire
    }

    /// Replay time no layer span covers.
    pub fn glue(&self) -> Duration {
        let layers = self.source() + self.engine() + self.coordinator + self.relocation_steps;
        self.total.saturating_sub(layers)
    }

    /// Total results over both phases.
    pub fn total_results(&self) -> u64 {
        self.runtime_results + self.cleanup_results
    }

    /// Busy time per layer; together they cover the whole replay.
    pub fn layers(&self) -> [(&'static str, Duration); 11] {
        [
            ("streamgen", self.streamgen),
            ("split", self.split),
            ("wire.encode", self.wire_encode),
            ("wire.decode", self.wire_decode),
            ("engine.join", self.join),
            ("engine.tick.purge", self.purge),
            ("engine.tick.spill", self.spill),
            ("engine.cleanup", self.cleanup),
            ("coordinator", self.coordinator),
            ("relocation.steps", self.relocation_steps),
            ("glue", self.glue()),
        ]
    }
}

/// A relocation transfer between extraction and installation.
#[derive(Debug)]
struct InFlight {
    round: u64,
    sender: EngineId,
    receiver: EngineId,
    frame: Vec<u8>,
    complete_at: VirtualTime,
}

/// Run one traced replay of `cfg` up to `deadline`.
pub fn replay(cfg: &SimConfig, deadline: VirtualTime) -> Result<Trace> {
    let start = Instant::now();
    let mut r = Replay::new(cfg.clone())?;
    r.run_until(deadline)?;
    r.finish()?;
    r.t.total = start.elapsed();
    Ok(r.t)
}

struct Replay {
    cfg: SimConfig,
    engines: Vec<QueryEngine>,
    placement: PlacementMap,
    split: SplitOperator,
    gc: GlobalCoordinator,
    gen: StreamSetGenerator,
    stats_timer: PeriodicTimer,
    sink: CountingSink,
    in_flight: Vec<InFlight>,
    now: VirtualTime,
    frame: Vec<u8>,
    t: Trace,
}

impl Replay {
    fn new(cfg: SimConfig) -> Result<Self> {
        let gen = StreamSetGenerator::new(cfg.workload.clone())?;
        let split = SplitOperator::new(
            gen.partitioner(),
            vec![StreamSetGenerator::JOIN_COLUMN; cfg.workload.num_streams],
        )?;
        let placement =
            PlacementMap::new(&cfg.placement, cfg.workload.num_partitions, cfg.num_engines)?;
        let engines = (0..cfg.num_engines)
            .map(|i| QueryEngine::in_memory(EngineId(i as u16), cfg.engine.clone()))
            .collect::<Result<Vec<_>>>()?;
        let mut gc = GlobalCoordinator::new(&cfg.strategy);
        gc.init_membership(cfg.num_engines, cfg.capacity());
        Ok(Replay {
            stats_timer: PeriodicTimer::new(cfg.stats_interval, VirtualTime::ZERO),
            sink: CountingSink::new(),
            in_flight: Vec::new(),
            now: VirtualTime::ZERO,
            frame: Vec::new(),
            t: Trace::default(),
            cfg,
            engines,
            placement,
            split,
            gc,
            gen,
        })
    }

    fn run_until(&mut self, deadline: VirtualTime) -> Result<()> {
        let mut tick = Vec::new();
        let mut batches: Vec<TupleBatch> =
            (0..self.engines.len()).map(|_| TupleBatch::new()).collect();
        while self.gen.now() < deadline {
            let t0 = Instant::now();
            self.now = self.gen.tick_batch(&mut tick);
            self.t.streamgen += t0.elapsed();
            self.t.streamgen_tuples += tick.len() as u64;
            self.on_clock()?;
            let t0 = Instant::now();
            for tuple in tick.drain(..) {
                let pid = self.split.classify(&tuple)?;
                match self.placement.route(pid, tuple)? {
                    Route::Buffered => self.t.split_buffered += 1,
                    Route::Deliver(engine, tuple) => batches[engine.index()].push(pid, tuple),
                }
            }
            self.t.split += t0.elapsed();
            for (i, batch) in batches.iter_mut().enumerate() {
                if !batch.is_empty() {
                    let batch = self.ship_data(std::mem::take(batch))?;
                    self.join(i, batch)?;
                }
            }
        }
        self.now = deadline;
        self.on_clock()
    }

    /// The sim's clock pulse: protocol progress, engine ticks, and the
    /// coordinator on its stats timer.
    fn on_clock(&mut self) -> Result<()> {
        self.pump_protocol()?;
        let watermark = self.split.admitted_watermark();
        let horizon = self.placement.purge_horizon(watermark);
        for i in 0..self.engines.len() {
            let t0 = Instant::now();
            let outcome = self.engines[i].tick_with_horizon(self.now, horizon)?;
            let dt = t0.elapsed();
            match outcome {
                Some(o) => self.count_spill(&o, dt),
                None => self.t.purge += dt,
            }
            if !self.placement.is_fenced(self.engines[i].id()) {
                self.engines[i].maybe_reactivate(&mut self.sink)?;
            }
        }
        if self.stats_timer.expired(self.now) {
            self.stats_timer.reset(self.now);
            self.evaluate_coordinator()?;
        }
        Ok(())
    }

    fn count_spill(&mut self, o: &SpillOutcome, dt: Duration) {
        self.t.spill += dt;
        self.t.spill_events += 1;
        self.t.spill_state_bytes += o.state_bytes;
        self.t.spill_bytes_written += o.encoded_bytes;
    }

    /// One engine's data batch through the wire codec, as the socket
    /// runtime ships it.
    fn ship_data(&mut self, tuples: TupleBatch) -> Result<TupleBatch> {
        let msg = WireMsg::Engine(ToEngine::DataBatch { tuples });
        let t0 = Instant::now();
        self.frame.clear();
        encode_msg(&msg, &mut self.frame);
        // The sender releases the batch once it is serialized.
        drop(msg);
        let t1 = Instant::now();
        let decoded = decode_msg(&mut &self.frame[..])?;
        self.t.wire_decode += t1.elapsed();
        self.t.wire_encode += t1 - t0;
        self.t.wire_bytes += self.frame.len() as u64;
        match decoded {
            WireMsg::Engine(ToEngine::DataBatch { tuples }) => Ok(tuples),
            _ => Err(DcapeError::codec("data batch decoded as another message")),
        }
    }

    fn join(&mut self, engine: usize, batch: TupleBatch) -> Result<()> {
        let tuples = batch.len() as u64;
        let t0 = Instant::now();
        let results = self.engines[engine].process_batch(batch, &mut self.sink)?;
        self.t.join += t0.elapsed();
        self.t.join_tuples += tuples;
        self.t.join_results += results;
        self.t.join_peak_state_bytes = self
            .t
            .join_peak_state_bytes
            .max(self.engines[engine].memory_used());
        Ok(())
    }

    fn evaluate_coordinator(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let reports = self
            .gc
            .active_engines()
            .into_iter()
            .map(|e| self.engines[e.index()].report(self.now))
            .collect();
        let decision = self.gc.evaluate(&ClusterStats::new(reports), self.now)?;
        self.t.coordinator += t0.elapsed();
        match decision {
            Decision::None => Ok(()),
            Decision::ForceSpill { engine, amount } => {
                self.t.coordinator_decisions += 1;
                let t0 = Instant::now();
                let o = self.engines[engine.index()].force_spill(amount, self.now)?;
                self.count_spill(&o, t0.elapsed());
                Ok(())
            }
            Decision::Relocate { sender, .. } => {
                self.t.coordinator_decisions += 1;
                let (round, _, _, amount) = self
                    .gc
                    .active_round_info()
                    .ok_or_else(|| DcapeError::protocol("relocation decided without a round"))?;
                self.start_round(round, sender, amount)
            }
        }
    }

    /// Steps 1–5 of a round: select, pause, extract, encode the
    /// `InstallStates` and put it in flight for the modeled transfer
    /// time.
    fn start_round(&mut self, round: u64, sender: EngineId, amount: u64) -> Result<()> {
        let t0 = Instant::now();
        self.engines[sender.index()].set_mode(Mode::Relocation);
        let parts = self.engines[sender.index()].select_parts_to_move(amount);
        let (parts, receiver) = match self.gc.on_ptv(sender, round, parts, self.now)? {
            Some(Action::PauseAndTransfer {
                parts, receiver, ..
            }) => (parts, receiver),
            Some(Action::RemapAndResume { .. }) => {
                return Err(DcapeError::protocol("remap before transfer completed"));
            }
            None | Some(Action::Abort) => {
                self.engines[sender.index()].set_mode(Mode::Normal);
                self.t.relocation_steps += t0.elapsed();
                return Ok(());
            }
        };
        self.placement.pause(&parts)?;
        self.engines[receiver.index()].set_mode(Mode::Relocation);
        let t1 = Instant::now();
        let groups = self.engines[sender.index()].begin_outbound(round, &parts);
        let t2 = Instant::now();
        self.t.relocation_extract += t2 - t1;
        let bytes: u64 = groups.iter().map(|(g, _, _)| g.state_bytes() as u64).sum();
        let msg = WireMsg::Engine(ToEngine::InstallStates {
            round,
            sender,
            groups: groups
                .into_iter()
                .map(|(snapshot, output_count, purge_protect)| GroupTransfer {
                    snapshot,
                    output_count,
                    purge_protect,
                })
                .collect(),
            attempt: 0,
            declared_bytes: bytes,
        });
        let t3 = Instant::now();
        let mut frame = Vec::new();
        encode_msg(&msg, &mut frame);
        let encode = t3.elapsed();
        self.t.relocation_steps += t3 - t0;
        self.t.wire_encode += encode;
        self.t.relocation_wire += encode;
        self.t.wire_bytes += frame.len() as u64;
        self.t.relocation_wire_bytes += frame.len() as u64;
        self.t.relocation_state_bytes += bytes;
        self.in_flight.push(InFlight {
            round,
            sender,
            receiver,
            frame,
            complete_at: self.now + self.cfg.network.relocation_round_cost(bytes),
        });
        Ok(())
    }

    /// Complete due transfers in `(complete_at, insertion)` order, then
    /// poll the coordinator's phase deadline.
    fn pump_protocol(&mut self) -> Result<()> {
        let mut t0 = Instant::now();
        let now = self.now;
        let (mut due, pending): (Vec<_>, Vec<_>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|t| now >= t.complete_at);
        self.in_flight = pending;
        if !due.is_empty() {
            due.sort_by_key(|t| t.complete_at);
            self.t.relocation_steps += t0.elapsed();
            for t in due {
                self.complete_transfer(t)?;
            }
            t0 = Instant::now();
        }
        let timeout = self.gc.check_timeout(self.now);
        self.t.relocation_steps += t0.elapsed();
        match timeout {
            None => Ok(()),
            Some(action) => Err(DcapeError::protocol(format!(
                "unexpected protocol timeout without faults: {action:?}"
            ))),
        }
    }

    /// Steps 5–8: decode and install at the receiver, ack, remap and
    /// flush the buffered tuples to the new owner, commit both ends.
    fn complete_transfer(&mut self, t: InFlight) -> Result<()> {
        let t0 = Instant::now();
        let msg = decode_msg(&mut &t.frame[..])?;
        let decode = t0.elapsed();
        self.t.wire_decode += decode;
        self.t.relocation_wire += decode;
        let t1 = Instant::now();
        let groups: Vec<ExtractedGroup> = match msg {
            WireMsg::Engine(ToEngine::InstallStates { groups, .. }) => groups
                .into_iter()
                .map(|g| (g.snapshot, g.output_count, g.purge_protect))
                .collect(),
            _ => return Err(DcapeError::codec("transfer decoded as another message")),
        };
        let t2 = Instant::now();
        self.engines[t.receiver.index()].install_groups_for_round(t.round, groups)?;
        let t3 = Instant::now();
        self.t.relocation_install += t3 - t2;
        let action = self.gc.on_transfer_ack(t.receiver, t.round, self.now)?;
        let parts: Vec<PartitionId> = match action {
            None => {
                self.t.relocation_steps += t3 - t1 + t3.elapsed();
                return Ok(());
            }
            Some(Action::RemapAndResume { parts, .. }) => parts,
            Some(other) => {
                return Err(DcapeError::protocol(format!(
                    "unexpected action after ack: {other:?}"
                )));
            }
        };
        let released = self.placement.remap_and_release(&parts, t.receiver)?;
        let mut flush = TupleBatch::new();
        for (pid, tuples) in released {
            for tuple in tuples {
                flush.push(pid, tuple);
            }
        }
        self.t.relocation_steps += t3 - t1 + t3.elapsed();
        if !flush.is_empty() {
            let flush = self.ship_data(flush)?;
            self.join(t.receiver.index(), flush)?;
        }
        let t0 = Instant::now();
        self.engines[t.sender.index()].commit_outbound(t.round);
        self.engines[t.receiver.index()].commit_inbound(t.round);
        self.engines[t.sender.index()].set_mode(Mode::Normal);
        self.engines[t.receiver.index()].set_mode(Mode::Normal);
        self.t.relocation_steps += t0.elapsed();
        self.t.relocation_rounds += 1;
        Ok(())
    }

    /// Quiesce the protocol, then run the cleanup phase: forward every
    /// spilled segment to its partition's owner and let each engine
    /// merge.
    fn finish(&mut self) -> Result<()> {
        while !self.in_flight.is_empty() || self.gc.relocation_active() {
            let next = self
                .in_flight
                .iter()
                .map(|t| t.complete_at)
                .chain(self.gc.phase_deadline())
                .min();
            let Some(next) = next else { break };
            self.now = self.now.max(next);
            self.pump_protocol()?;
        }
        self.t.runtime_results = self.sink.count();
        let t0 = Instant::now();
        let read_before = self.bytes_read();
        for i in 0..self.engines.len() {
            for pid in self.engines[i].spilled_partitions() {
                let owner = self.placement.owner(pid)?.index();
                if owner != i {
                    let segments = self.engines[i].take_spilled_segments(pid)?;
                    self.engines[owner].import_segments(segments)?;
                }
            }
        }
        let mut sink = CountingSink::new();
        for e in &mut self.engines {
            let report = e.cleanup(&mut sink)?;
            self.t.cleanup_scanned_tuples += report.scanned_tuples;
        }
        self.t.cleanup += t0.elapsed();
        self.t.cleanup_results = sink.count();
        self.t.cleanup_bytes_read = self.bytes_read() - read_before;
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.store().stats().encoded_bytes_read)
            .sum()
    }
}
