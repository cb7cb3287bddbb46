//! The discrete-event queue, shaped like the events it holds.
//!
//! Each event kind sits in a structure that matches how the simulator
//! schedules it:
//!
//! * `Delivery` and `AckArrival` each go in a FIFO ring. Every packet is
//!   one `mss` and propagation is constant, so their times never decrease
//!   (checked by a `debug_assert!` at push).
//! * `LinkFree` has one slot: the link serializes one packet at a time.
//! * Each flow has a wake slot and a timer slot. `FlowStart` shares the
//!   wake slot with `SenderWake`, because a flow cannot schedule a wake
//!   before it starts. Re-arming a `Timeout` overwrites the timer slot, so
//!   a superseded timer never enters the queue.
//!
//! Every entry keeps `(time, sequence)`, the sequence taken from one
//! counter at schedule or arm time, and [`EventQueue::pop`] returns the
//! minimum over the two ring heads, the link slot and the earliest flow
//! slot. Two events scheduled for the same instant therefore pop in
//! scheduling order, which keeps the simulation deterministic. The flow
//! slots sit under a tournament tree, so finding the earliest costs
//! `log2(2 · flows)` comparisons per update, not a scan over every flow.

use crate::packet::Packet;
use crate::time::{Duration, SimTime};
use std::collections::VecDeque;

/// Everything that can happen in the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A flow becomes active and starts sending.
    FlowStart {
        /// Flow index.
        flow: usize,
    },
    /// The bottleneck link finished serializing its head packet and can
    /// start on the next one.
    LinkFree,
    /// A data packet arrives at the receiver.
    Delivery {
        /// The delivered packet.
        packet: Packet,
    },
    /// An ACK arrives back at a sender.
    AckArrival {
        /// Flow index the ACK belongs to.
        flow: usize,
        /// Sequence number being acknowledged.
        seq: u64,
        /// When the acknowledged data packet was originally sent.
        sent_at: SimTime,
        /// Bytes acknowledged.
        bytes: u32,
    },
    /// Pacing timer: the flow may be able to send now.
    SenderWake {
        /// Flow index.
        flow: usize,
    },
    /// Retransmission timeout check for a flow. Scheduling one re-arms the
    /// flow's timer: it replaces any timeout still pending for that flow.
    Timeout {
        /// Flow index.
        flow: usize,
    },
}

/// `(time, sequence)` packed into one integer that orders like the pair.
type Key = u128;

/// The key of an empty slot; above every real key.
const EMPTY: Key = Key::MAX;

fn key(at: SimTime, seq: u64) -> Key {
    (at.as_nanos() as Key) << 64 | seq as Key
}

fn time_of(k: Key) -> SimTime {
    SimTime::ZERO + Duration::from_nanos((k >> 64) as u64)
}

/// Where the earliest pending event lives.
enum Head {
    Slot(usize),
    LinkFree,
    Delivery,
    Ack,
}

/// Deterministic event queue for a simulation of a fixed number of flows.
pub struct EventQueue {
    deliveries: VecDeque<(Key, Event)>,
    acks: VecDeque<(Key, Event)>,
    link_free: Key,
    /// Flow slot keys: `2 · flow` is the wake slot, `2 · flow + 1` the
    /// timer. Padded with empty slots to a power of two.
    slots: Vec<Key>,
    /// Whether a flow's wake slot holds its `FlowStart`.
    starting: Vec<bool>,
    /// Tournament tree over `slots`: `tree[i]` is the slot with the
    /// smallest key below node `i`; node `slots.len() + s` is slot `s`.
    tree: Vec<usize>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        let width = (2 * n_flows).next_power_of_two().max(2);
        let mut tree = vec![0; width];
        tree.extend(0..width);
        // All slots start empty: every match goes to the leftmost slot.
        for node in (1..width).rev() {
            tree[node] = tree[2 * node];
        }
        EventQueue {
            deliveries: VecDeque::new(),
            acks: VecDeque::new(),
            link_free: EMPTY,
            slots: vec![EMPTY; width],
            starting: vec![false; n_flows],
            tree,
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// A `Timeout` replaces the flow's pending timeout. The other kinds
    /// must keep the simulator's invariants: `Delivery` and `AckArrival`
    /// times never decrease, at most one `LinkFree` is pending, and at most
    /// one `FlowStart` or `SenderWake` per flow.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let k = key(at, self.next_seq);
        self.next_seq += 1;
        match event {
            Event::FlowStart { flow } | Event::SenderWake { flow } => {
                debug_assert_eq!(self.slots[2 * flow], EMPTY, "one wake per flow");
                self.starting[flow] = matches!(event, Event::FlowStart { .. });
                self.set_slot(2 * flow, k);
            }
            Event::Timeout { flow } => self.set_slot(2 * flow + 1, k),
            Event::LinkFree => {
                debug_assert_eq!(self.link_free, EMPTY, "one LinkFree at a time");
                self.link_free = k;
            }
            Event::Delivery { .. } => push_fifo(&mut self.deliveries, k, event),
            Event::AckArrival { .. } => push_fifo(&mut self.acks, k, event),
        }
    }

    /// Pop the earliest event (ties in scheduling order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let slot = self.tree[1];
        let (mut best, mut head) = (self.slots[slot], Head::Slot(slot));
        if self.link_free < best {
            (best, head) = (self.link_free, Head::LinkFree);
        }
        if let Some(&(k, _)) = self.deliveries.front() {
            if k < best {
                (best, head) = (k, Head::Delivery);
            }
        }
        if let Some(&(k, _)) = self.acks.front() {
            if k < best {
                (best, head) = (k, Head::Ack);
            }
        }
        if best == EMPTY {
            return None;
        }
        let event = match head {
            Head::Slot(s) => {
                self.set_slot(s, EMPTY);
                let flow = s / 2;
                if s % 2 == 1 {
                    Event::Timeout { flow }
                } else if self.starting[flow] {
                    Event::FlowStart { flow }
                } else {
                    Event::SenderWake { flow }
                }
            }
            Head::LinkFree => {
                self.link_free = EMPTY;
                Event::LinkFree
            }
            Head::Delivery => self.deliveries.pop_front().expect("head exists").1,
            Head::Ack => self.acks.pop_front().expect("head exists").1,
        };
        Some((time_of(best), event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        let slots = self.slots.iter().filter(|&&k| k != EMPTY).count();
        self.deliveries.len() + self.acks.len() + usize::from(self.link_free != EMPTY) + slots
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set slot `s` and replay the matches on its path to the root.
    fn set_slot(&mut self, s: usize, k: Key) {
        self.slots[s] = k;
        let mut node = (self.slots.len() + s) / 2;
        while node > 0 {
            let (a, b) = (self.tree[2 * node], self.tree[2 * node + 1]);
            self.tree[node] = if self.slots[a] <= self.slots[b] { a } else { b };
            node /= 2;
        }
    }
}

fn push_fifo(ring: &mut VecDeque<(Key, Event)>, k: Key, event: Event) {
    debug_assert!(
        ring.back()
            .is_none_or(|&(last, _)| time_of(last) <= time_of(k)),
        "FIFO event times never decrease"
    );
    ring.push_back((k, event));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(2);
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        q.schedule(t(5), Event::LinkFree);
        q.schedule(t(1), Event::SenderWake { flow: 0 });
        q.schedule(t(3), Event::FlowStart { flow: 1 });
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.pop().unwrap().0, t(3));
        assert_eq!(q.pop().unwrap().0, t(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new(10);
        let t = SimTime::ZERO + Duration::from_millis(7);
        for flow in 0..10 {
            q.schedule(t, Event::SenderWake { flow });
        }
        for expect in 0..10 {
            match q.pop().unwrap().1 {
                Event::SenderWake { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn len_tracks_content() {
        let mut q = EventQueue::new(1);
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, Event::LinkFree);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn rearming_a_timer_replaces_it() {
        let mut q = EventQueue::new(1);
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        q.schedule(t(5), Event::Timeout { flow: 0 });
        q.schedule(t(9), Event::Timeout { flow: 0 });
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(9), Event::Timeout { flow: 0 })));
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The order a single heap of `(time, sequence)` gives, skipping
    /// timeouts that a later re-arm superseded. The sequence number is the
    /// event's index in `events`.
    struct Reference {
        heap: BinaryHeap<Reverse<(SimTime, usize)>>,
        events: Vec<Event>,
        live_timer: Vec<usize>,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, event: Event) {
            let seq = self.events.len();
            if let Event::Timeout { flow } = event {
                self.live_timer[flow] = seq;
            }
            self.heap.push(Reverse((at, seq)));
            self.events.push(event);
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            while let Some(Reverse((at, seq))) = self.heap.pop() {
                match self.events[seq] {
                    Event::Timeout { flow } if self.live_timer[flow] != seq => continue,
                    ref e => return Some((at, e.clone())),
                }
            }
            None
        }
    }

    fn packet(flow: usize, seq: u64) -> Packet {
        Packet {
            flow,
            seq,
            size: 1500,
            sent_at: SimTime::ZERO,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random schedule/pop scripts that keep the simulator's
        /// invariants pop identically, same-instant ties included, from
        /// the shaped queue and from one heap.
        #[test]
        fn prop_pop_order_matches_one_heap(
            ops in aml_propcheck::collection::vec((0u8..6, (0u8..64, 0u8..4)), 1..400),
            n_flows in 1usize..70,
        ) {
            let t = |ns: u64| SimTime::ZERO + Duration::from_nanos(ns);
            let mut q = EventQueue::new(n_flows);
            let mut r = Reference {
                heap: BinaryHeap::new(),
                events: Vec::new(),
                live_timer: vec![usize::MAX; n_flows],
            };
            fn schedule(q: &mut EventQueue, r: &mut Reference, at: SimTime, e: Event) {
                q.schedule(at, e.clone());
                r.schedule(at, e);
            }
            for flow in 0..n_flows {
                schedule(&mut q, &mut r, t(2 * flow as u64), Event::FlowStart { flow });
            }
            let (mut now, mut last_delivery, mut last_ack) = (0u64, 0u64, 0u64);
            let mut link_pending = false;
            let mut started = vec![false; n_flows];
            let mut wake_pending = vec![true; n_flows];
            let mut popped = Vec::new();
            for (i, &(op, (pick, delta))) in ops.iter().enumerate() {
                let flow = pick as usize % n_flows;
                let delta = delta as u64;
                match op {
                    1 => {
                        last_delivery = last_delivery.max(now) + delta;
                        let e = Event::Delivery { packet: packet(flow, i as u64) };
                        schedule(&mut q, &mut r, t(last_delivery), e);
                    }
                    2 => {
                        last_ack = last_ack.max(now) + delta;
                        let e = Event::AckArrival {
                            flow,
                            seq: i as u64,
                            sent_at: SimTime::ZERO,
                            bytes: 1500,
                        };
                        schedule(&mut q, &mut r, t(last_ack), e);
                    }
                    3 if !link_pending => {
                        link_pending = true;
                        schedule(&mut q, &mut r, t(now + delta), Event::LinkFree);
                    }
                    4 if started[flow] && !wake_pending[flow] => {
                        wake_pending[flow] = true;
                        schedule(&mut q, &mut r, t(now + delta), Event::SenderWake { flow });
                    }
                    5 => schedule(&mut q, &mut r, t(now + delta), Event::Timeout { flow }),
                    _ => {
                        let got = q.pop();
                        prop_assert_eq!(&got, &r.pop(), "pop {}", popped.len());
                        let Some((at, event)) = got else { continue };
                        now = at.as_nanos();
                        match event {
                            Event::LinkFree => link_pending = false,
                            Event::FlowStart { flow } => {
                                started[flow] = true;
                                wake_pending[flow] = false;
                            }
                            Event::SenderWake { flow } => wake_pending[flow] = false,
                            _ => {}
                        }
                        popped.push(at);
                    }
                }
            }
            loop {
                let got = q.pop();
                prop_assert_eq!(&got, &r.pop(), "drain after {} pops", popped.len());
                if got.is_none() {
                    break;
                }
                popped.push(got.unwrap().0);
            }
            prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(q.is_empty());
        }
    }
}
