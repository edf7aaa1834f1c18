//! Event dispatch: one handler per event class, from client arrival
//! through the request path to the controller tick.

use super::*;

impl Simulation {
    pub(super) fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::ClientArrival { arrival_idx } => self.on_client_arrival(now, arrival_idx),
            Event::Deliver { packet } => match packet.kind {
                PacketKind::Request => self.on_request_delivered(now, packet),
                PacketKind::Response => self.on_response_delivered(now, packet),
            },
            Event::PhaseComplete { container, epoch } => {
                // A fired timer carries the epoch it was armed under, and
                // every mutation since would have re-armed it; only an
                // event scheduled by hand can carry another, and it
                // finds nothing due.
                let changed_since_armed = self.containers.epoch(container.index()) != epoch;
                // Harvest into the reusable scratch buffer (taken out of
                // `self` so the completion handlers can borrow the
                // simulation mutably).
                let mut done = std::mem::take(&mut self.done_scratch);
                self.containers
                    .pop_completed_into(container.index(), now, &mut done);
                debug_assert!(
                    done.is_empty() || !changed_since_armed,
                    "phases came due under a completion armed before the slot last changed"
                );
                for &inv in &done {
                    self.on_phase_done(now, inv);
                }
                done.clear();
                self.done_scratch = done;
                self.reschedule(now, container);
            }
            Event::ControllerTick { node } => self.on_controller_tick(now, node),
            Event::FreqApply { container, level } => {
                if let Some(effect) = self.ledger.land_freq(container, level) {
                    self.apply_effect(now, effect);
                }
            }
            Event::FaultStart { idx } => self.on_fault_edge(now, idx, true),
            Event::FaultEnd { idx } => self.on_fault_edge(now, idx, false),
        }
    }

    fn on_client_arrival(&mut self, now: SimTime, arrival_idx: u32) {
        if let Some(next) = self.arrivals.next_arrival() {
            debug_assert!(next >= now, "arrival stream went backwards");
            self.engine.schedule(
                next,
                Event::ClientArrival {
                    arrival_idx: arrival_idx + 1,
                },
            );
        }
        self.injected += 1;
        // Trace ids are injection indices, so sampling is stable against
        // safety-valve drops (dropped arrivals consume an id, no span).
        let trace = self.injected - 1;
        if self.in_flight >= self.cfg.max_in_flight {
            self.dropped += 1;
            return;
        }
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);

        let span = if self.span_sink.is_some() && self.sampler.sampled(trace) {
            // Reserve the synthetic root "request" span id and the
            // frontend hop id together.
            let root_id = self.next_span_id;
            self.next_span_id += 2;
            let hop = HopSpan::new(trace, root_id + 1, root_id, now, SimDuration::ZERO);
            Some(hop)
        } else {
            None
        };

        let meta = RpcMetadata::new_job(now);
        let frontend_slot = self.pick_replica(TaskGraph::ROOT);
        let frontend = ContainerId(frontend_slot as u32);
        let inv = self.alloc_invocation(TaskGraph::ROOT, frontend, None, now, meta, span);
        self.inflight[frontend_slot] += 1;
        let delay = self.network.latency(
            now,
            self.cfg.placement.client_node(),
            self.cfg.placement.node(TaskGraph::ROOT),
            &mut self.rng,
        );
        self.engine.schedule(
            now + delay,
            Event::Deliver {
                packet: Packet {
                    kind: PacketKind::Request,
                    invocation: inv,
                    dest: frontend,
                    edge: 0,
                    rep: self.ledger.layout().replica_of(frontend_slot) as u16,
                    meta,
                },
            },
        );
    }

    fn on_request_delivered(&mut self, now: SimTime, packet: Packet) {
        // FirstResponder site: every request packet crosses the rx hook of
        // its destination node before reaching the container.
        let (dest, meta) = (packet.dest, packet.meta);
        let node = self.containers.node(dest.index());
        let expected = self.cfg.params[self.ledger.layout().service_of(dest.index()).index()]
            .expected_time_from_start;
        let slack = per_packet_slack(expected, now, meta.start_time);
        if self.metrics_sink.is_some() {
            self.slack_acc[dest.index()].push(slack);
        }
        let actions = self.controllers[node.index()].on_packet(now, dest, meta);
        if let Some(boost) = packet_boost(&actions, now, node, dest, slack) {
            self.fr_boost_counts[dest.index()] += 1;
            if let Some(sink) = &self.sink {
                sink.emit(boost);
            }
        }
        if !actions.is_empty() {
            self.apply_actions(now, node, actions, ActionOrigin::PacketHook);
        }

        let inv_id = packet.invocation;
        let svc = self.invocations[inv_id as usize].service;
        let spec = &self.cfg.graph.services[svc.index()];
        let u: f64 = self.rng.random();
        let work = sample_work(spec.work_mean, spec.work_cv, u);
        let pre = work.mul_f64(spec.pre_fraction);
        let post = work.saturating_sub(pre);
        {
            let freq_level = self.ledger.alloc(dest.index()).freq_level;
            let inv = &mut self.invocations[inv_id as usize];
            inv.arrival = now;
            inv.post_work = post;
            inv.phase = InvPhase::Pre;
            if let Some(span) = &mut inv.span {
                // Stamp what the rx hook saw: any boost triggered by this
                // very packet is still behind the MSR-write delay, so
                // this is the *pre-boost* frequency state.
                span.entry = annotate_entry(expected, now, meta.start_time, freq_level);
            }
        }
        self.containers.add_phase(dest.index(), now, inv_id, pre);
        self.reschedule(now, dest);
    }

    fn on_response_delivered(&mut self, now: SimTime, packet: Packet) {
        let parent_id = packet.invocation;
        let parent_c = packet.dest;
        let edge = packet.edge as usize;
        let rep = packet.rep;
        let child_svc = {
            let parent_svc = self.invocations[parent_id as usize].service;
            self.cfg.graph.services[parent_svc.index()].children[edge].child
        };
        let child_slot = self.ledger.layout().slot_of(child_svc, rep as u32);

        // Return the connection; a queued waiter gets it immediately.
        // The connection belongs to one replica, so the waiter's RPC goes
        // to the same replica (connection reuse, no fresh LB pick).
        if let Some((waiter, enq)) = self.pools[parent_c.index()][edge][rep as usize].release() {
            let waited = now.saturating_since(enq);
            self.send_child_rpc(now, waiter, edge, rep, waited);
        }

        // The replica finished serving this RPC (waiter hand-off above
        // keeps the count from bottoming out while work is queued).
        self.inflight[child_slot] -= 1;
        self.maybe_retire(now, child_slot);

        let (phase_over, next_edge) = {
            let inv = &mut self.invocations[parent_id as usize];
            debug_assert!(inv.in_use && inv.phase == InvPhase::Children);
            inv.outstanding -= 1;
            let n_children = self.cfg.graph.services[inv.service.index()].children.len();
            match self.cfg.graph.services[inv.service.index()].call_mode {
                CallMode::Sequential => {
                    if (inv.next_child as usize) < n_children {
                        let e = inv.next_child as usize;
                        inv.next_child += 1;
                        inv.outstanding += 1;
                        (false, Some(e))
                    } else {
                        (inv.outstanding == 0, None)
                    }
                }
                // OneOf issued its single pick up front, like Parallel
                // issued all of its edges: nothing more to start here.
                CallMode::Parallel | CallMode::OneOf => (inv.outstanding == 0, None),
            }
        };

        if let Some(e) = next_edge {
            self.try_issue_child(now, parent_id, e);
        } else if phase_over {
            self.start_post_phase(now, parent_id);
        }
    }

    fn on_phase_done(&mut self, now: SimTime, inv_id: InvocationId) {
        let phase = self.invocations[inv_id as usize].phase;
        match phase {
            InvPhase::Pre => {
                if let Some(span) = &mut self.invocations[inv_id as usize].span {
                    span.pre_done = now;
                }
                let svc = self.invocations[inv_id as usize].service;
                let spec = &self.cfg.graph.services[svc.index()];
                if spec.children.is_empty() {
                    self.start_post_phase(now, inv_id);
                } else {
                    let (mode, n_children) = (spec.call_mode, spec.children.len());
                    {
                        let inv = &mut self.invocations[inv_id as usize];
                        inv.phase = InvPhase::Children;
                    }
                    match mode {
                        CallMode::Sequential => {
                            {
                                let inv = &mut self.invocations[inv_id as usize];
                                inv.next_child = 1;
                                inv.outstanding = 1;
                            }
                            self.try_issue_child(now, inv_id, 0);
                        }
                        CallMode::Parallel => {
                            {
                                let inv = &mut self.invocations[inv_id as usize];
                                inv.next_child = n_children as u16;
                                inv.outstanding = n_children as u16;
                            }
                            for e in 0..n_children {
                                self.try_issue_child(now, inv_id, e);
                            }
                        }
                        CallMode::OneOf => {
                            // Uniform pick from the one sim RNG stream;
                            // graphs without OneOf services draw nothing
                            // here and keep their exact event sequence.
                            let e = (self.rng.random::<u32>() % n_children as u32) as usize;
                            {
                                let inv = &mut self.invocations[inv_id as usize];
                                inv.next_child = n_children as u16;
                                inv.outstanding = 1;
                            }
                            self.try_issue_child(now, inv_id, e);
                        }
                    }
                }
            }
            InvPhase::Post => self.respond(now, inv_id),
            InvPhase::Children => {
                unreachable!("Children phase has no CPU work to complete")
            }
        }
    }

    /// Begin the post-call work slice, or respond immediately if empty.
    fn start_post_phase(&mut self, now: SimTime, inv_id: InvocationId) {
        let (post, container) = {
            let inv = &mut self.invocations[inv_id as usize];
            inv.phase = InvPhase::Post;
            if let Some(span) = &mut inv.span {
                span.post_start = now;
            }
            (inv.post_work, inv.slot)
        };
        if post.is_zero() {
            self.respond(now, inv_id);
        } else {
            self.containers
                .add_phase(container.index(), now, inv_id, post);
            self.reschedule(now, container);
        }
    }

    /// Attempt to issue child RPC `edge` of `parent`: pick a callee
    /// replica, then acquire a connection from that replica's pool or
    /// queue on it.
    fn try_issue_child(&mut self, now: SimTime, parent: InvocationId, edge: usize) {
        let (parent_c, svc) = {
            let inv = &self.invocations[parent as usize];
            (inv.slot, inv.service)
        };
        let child_svc = self.cfg.graph.services[svc.index()].children[edge].child;
        let child_slot = self.pick_replica(child_svc);
        let rep = self.ledger.layout().replica_of(child_slot) as u16;
        match self.pools[parent_c.index()][edge][rep as usize].acquire(now, parent) {
            Acquire::Granted => self.send_child_rpc(now, parent, edge, rep, SimDuration::ZERO),
            Acquire::Queued => {
                // The invocation now sits in the hidden threadpool queue:
                // no CPU held, nothing visible on the network.
            }
        }
    }

    /// Actually send child RPC `edge` of `parent` (a connection is held).
    pub(super) fn send_child_rpc(
        &mut self,
        now: SimTime,
        parent: InvocationId,
        edge: usize,
        rep: u16,
        waited: SimDuration,
    ) {
        let (svc, req_start, meta_out, parent_span) = {
            let inv = &mut self.invocations[parent as usize];
            inv.conn_wait += waited;
            let parent_c = inv.slot;
            let hint = self.containers.egress_hint(parent_c.index());
            let mut meta = inv.meta_in.propagate();
            if hint > 0 {
                meta = meta.with_hint(hint);
            }
            (inv.service, inv.req_start, meta, inv.span)
        };
        // The pool wait happened in the parent, but it delayed *this*
        // RPC — charge it to the callee hop so the critical path points
        // at the congested downstream pool.
        let child_span = parent_span.map(|ps| {
            self.next_span_id += 1;
            HopSpan::new(ps.trace, self.next_span_id - 1, ps.id, now, waited)
        });
        let child_svc = self.cfg.graph.services[svc.index()].children[edge].child;
        let child_slot = self.ledger.layout().slot_of(child_svc, rep as u32);
        let child_c = ContainerId(child_slot as u32);
        self.inflight[child_slot] += 1;
        let child_inv = self.alloc_invocation(
            child_svc,
            child_c,
            Some((parent, edge as u16)),
            req_start,
            meta_out,
            child_span,
        );
        let delay = self.network.latency(
            now,
            self.cfg.placement.node(svc),
            self.cfg.placement.node(child_svc),
            &mut self.rng,
        );
        self.engine.schedule(
            now + delay,
            Event::Deliver {
                packet: Packet {
                    kind: PacketKind::Request,
                    invocation: child_inv,
                    dest: child_c,
                    edge: edge as u16,
                    rep,
                    meta: meta_out,
                },
            },
        );
    }

    /// The invocation finished all local work: record metrics and reply.
    fn respond(&mut self, now: SimTime, inv_id: InvocationId) {
        let (service, c, parent, req_start, arrival, conn_wait, hinted, span) = {
            let inv = &self.invocations[inv_id as usize];
            (
                inv.service,
                inv.slot,
                inv.parent,
                inv.req_start,
                inv.arrival,
                inv.conn_wait,
                inv.meta_in.has_hint(),
                inv.span,
            )
        };
        if let (Some(s), Some(sink)) = (&span, &self.span_sink) {
            let node = self.containers.node(c.index());
            let record = SpanRecord::hop(s, c, node, arrival, now);
            sink.emit(TelemetryEvent::Span(record));
        }
        let exec_time = now.saturating_since(arrival);
        let sample = RequestSample {
            exec_time,
            conn_wait,
        };
        self.containers.window_mut(c.index()).record(sample, hinted);
        // Profiling stats stay per-SERVICE: replicas of a group pool into
        // one row, so `RunResult::profile` keeps its pre-replica shape.
        let acc = &mut self.profile[service.index()];
        acc.requests += 1;
        acc.sum_exec_metric += sample.exec_metric().as_nanos();
        acc.sum_exec_time += exec_time.as_nanos();
        acc.sum_tfs += arrival.saturating_since(req_start).as_nanos();

        match parent {
            Some((parent_inv, edge)) => {
                let parent_svc = self.invocations[parent_inv as usize].service;
                let parent_slot = self.invocations[parent_inv as usize].slot;
                let meta = self.invocations[inv_id as usize].meta_in;
                let delay = self.network.latency(
                    now,
                    self.cfg.placement.node(service),
                    self.cfg.placement.node(parent_svc),
                    &mut self.rng,
                );
                let rep = self.ledger.layout().replica_of(c.index()) as u16;
                self.free_invocation(inv_id);
                self.engine.schedule(
                    now + delay,
                    Event::Deliver {
                        packet: Packet {
                            kind: PacketKind::Response,
                            invocation: parent_inv,
                            dest: parent_slot,
                            edge,
                            rep,
                            meta,
                        },
                    },
                );
            }
            None => {
                // Root: deliver to the client and record the end-to-end
                // latency (no event needed; the client is passive).
                let delay = self.network.latency(
                    now,
                    self.cfg.placement.node(service),
                    self.cfg.placement.client_node(),
                    &mut self.rng,
                );
                let completion = now + delay;
                let latency = completion.saturating_since(req_start);
                // Synthetic root "request" span: client send to client
                // delivery. Its duration is exactly the LatencyPoint
                // latency — the span-tree conformance anchor.
                if let (Some(s), Some(sink)) = (&span, &self.span_sink) {
                    let root = SpanRecord::request(s.trace, s.parent, req_start, completion);
                    sink.emit(TelemetryEvent::Span(root));
                }
                // Recorded now, stamped with the delivery: it lands a few
                // places from the end of the completion-ordered log.
                insert_in_completion_order(
                    &mut self.points,
                    LatencyPoint {
                        completion,
                        latency,
                    },
                );
                // Fold into the node shard only once measurement starts,
                // so digest percentiles describe the same population as
                // the warmup-trimmed RunReport.
                if let Some(agg) = &self.agg {
                    if completion >= self.cfg.measure_start {
                        agg.record(self.cfg.placement.node(service), c, completion, latency);
                    }
                }
                self.completed += 1;
                self.in_flight -= 1;
                self.free_invocation(inv_id);
                self.inflight[c.index()] -= 1;
                self.maybe_retire(now, c.index());
            }
        }
    }

    fn on_controller_tick(&mut self, now: SimTime, node: NodeId) {
        let snapshot = NodeSnapshot::active(
            &self.cfg,
            node,
            |slot| self.ledger.state(slot) == ReplicaState::Active,
            |slot| {
                let window = self.containers.window_mut(slot).flush();
                (window, self.ledger.alloc(slot))
            },
        );
        if let Some(sink) = &self.sink {
            snapshot.emit_windows(now, &**sink);
        }
        let actions = self.controllers[node.index()].on_tick(now, &snapshot);
        self.apply_actions(now, node, actions, ActionOrigin::Tick);
        if self.metrics_sink.is_some() {
            // Sample AFTER applying this cycle's actions so the gauges
            // reflect the state the trailing Alloc events describe: the
            // reconcile invariant is event ≤ sample in both time and
            // file order.
            self.sample_metrics(now, node, &snapshot);
        }
        let next = now + self.controllers[node.index()].tick_interval();
        self.engine.schedule(next, Event::ControllerTick { node });
    }
}
