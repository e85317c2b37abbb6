//! Flits: the flow-control unit moving across links, one per cycle.
//!
//! A flit is a cheap `(Rc<Packet>, word)` pair. Replicating a worm at a
//! switch replicates flits, which is just a reference-count bump — matching
//! the hardware reality that replication copies pointers/flits inside the
//! switch, not whole packets.
//!
//! The word packs the flit's index with the packet's total and header flit
//! counts and the flit's marks, so classifying a flit reads no packet, and
//! a `Flit` (or `Option<Flit>`) is two machine words that travel in
//! registers rather than through the stack (DESIGN.md §13).

use crate::packet::Packet;
use std::fmt;
use std::rc::Rc;

/// Classification of a flit's position within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of the packet (begins the routing header).
    Head,
    /// Subsequent header flits.
    Header,
    /// Data flits.
    Payload,
    /// Final flit of the packet (releases resources as it drains).
    Tail,
}

/// Bit offsets of the fields packed into [`Flit`]'s word: three 16-bit
/// counts, then one bit per mark.
const TOTAL_SHIFT: u32 = 16;
const HEADER_SHIFT: u32 = 32;
const CORRUPT: u64 = 1 << 48;
/// Set by a faulty link on a flit it condemned; such a flit evaporates
/// on the link and never reaches a receiver.
const DROPPED: u64 = 1 << 49;

/// One flit of a packet.
#[derive(Clone)]
pub struct Flit {
    pkt: Rc<Packet>,
    /// `idx | total << 16 | header << 32`, plus the mark bits.
    word: u64,
}

/// The packed word of flit `idx` of a packet with `total` flits, `header`
/// of them routing header.
fn pack(idx: u16, total: u16, header: u16) -> u64 {
    u64::from(idx) | u64::from(total) << TOTAL_SHIFT | u64::from(header) << HEADER_SHIFT
}

impl Flit {
    /// Creates the `idx`-th flit of `pkt`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the packet.
    pub fn new(pkt: Rc<Packet>, idx: u16) -> Self {
        let (total, header) = (pkt.total_flits(), pkt.header_flits());
        assert!(
            idx < total,
            "flit index {idx} out of range for {total} flits"
        );
        Flit {
            pkt,
            word: pack(idx, total, header),
        }
    }

    /// The packet this flit belongs to.
    pub fn packet(&self) -> &Rc<Packet> {
        &self.pkt
    }

    /// Zero-based position within the packet.
    pub fn idx(&self) -> u16 {
        self.word as u16
    }

    /// The packet's flit count.
    fn total(&self) -> u16 {
        (self.word >> TOTAL_SHIFT) as u16
    }

    /// Position classification.
    pub fn kind(&self) -> FlitKind {
        if self.is_tail() {
            FlitKind::Tail
        } else if self.is_head() {
            FlitKind::Head
        } else if self.is_header() {
            FlitKind::Header
        } else {
            FlitKind::Payload
        }
    }

    /// `true` for the packet's first flit.
    pub fn is_head(&self) -> bool {
        self.idx() == 0
    }

    /// `true` for the packet's last flit.
    pub fn is_tail(&self) -> bool {
        self.idx() + 1 == self.total()
    }

    /// `true` while the flit is part of the routing header.
    pub fn is_header(&self) -> bool {
        self.idx() < (self.word >> HEADER_SHIFT) as u16
    }

    /// `true` if the flit was corrupted in transit (fault injection).
    ///
    /// Switches forward corrupt flits unknowingly — only endpoints check,
    /// via the packet checksum, when the worm completes.
    pub fn corrupted(&self) -> bool {
        self.word & CORRUPT != 0
    }

    /// Marks the flit as corrupted (called by a faulty [`crate::link::Link`]).
    pub fn mark_corrupt(&mut self) {
        self.word |= CORRUPT;
    }

    /// `true` if a faulty link condemned the flit.
    pub(crate) fn dropped(&self) -> bool {
        self.word & DROPPED != 0
    }

    /// Condemns the flit on the link carrying it.
    pub(crate) fn mark_dropped(&mut self) {
        self.word |= DROPPED;
    }

    /// Returns the same flit position re-bound to a (branch-rewritten) packet
    /// descriptor — the header-rewrite operation of the central-buffer switch.
    ///
    /// # Panics
    ///
    /// Panics if the replacement packet has a different flit count.
    pub fn rebind(&self, pkt: Rc<Packet>) -> Flit {
        let total = pkt.total_flits();
        assert_eq!(total, self.total(), "rebind must preserve packet length");
        let word = pack(self.idx(), total, pkt.header_flits()) | self.word & CORRUPT;
        Flit { pkt, word }
    }
}

impl fmt::Debug for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Flit({} {}/{} {:?})",
            self.pkt.id(),
            self.idx(),
            self.total(),
            self.kind()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::destset::DestSet;
    use crate::ids::NodeId;
    use crate::packet::PacketBuilder;

    fn pkt(payload: u16) -> Rc<Packet> {
        Rc::new(PacketBuilder::unicast(NodeId(0), NodeId(1), payload, 64).build())
    }

    #[test]
    fn kinds_along_packet() {
        let p = pkt(3); // 2 header + 3 payload
        assert_eq!(Flit::new(p.clone(), 0).kind(), FlitKind::Head);
        assert_eq!(Flit::new(p.clone(), 1).kind(), FlitKind::Header);
        assert_eq!(Flit::new(p.clone(), 2).kind(), FlitKind::Payload);
        assert_eq!(Flit::new(p.clone(), 3).kind(), FlitKind::Payload);
        assert_eq!(Flit::new(p.clone(), 4).kind(), FlitKind::Tail);
        assert!(Flit::new(p.clone(), 0).is_head());
        assert!(Flit::new(p.clone(), 4).is_tail());
        assert!(Flit::new(p.clone(), 1).is_header());
        assert!(!Flit::new(p, 2).is_header());
    }

    #[test]
    fn single_flit_packet_is_tail() {
        // Degenerate: header-only worm of one flit cannot exist with the
        // default encodings (min 2), but a 0-payload packet's last header
        // flit is the tail.
        let p = pkt(0); // 2 header flits total
        let f = Flit::new(p, 1);
        assert_eq!(f.kind(), FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let p = pkt(1);
        let _ = Flit::new(p, 100);
    }

    #[test]
    fn rebind_keeps_position() {
        let p = pkt(2);
        let f = Flit::new(p.clone(), 3);
        let q = Rc::new(p.with_header(p.header().clone()));
        let g = f.rebind(q);
        assert_eq!(g.idx(), 3);
        assert!(g.is_tail());
    }

    /// Two words, with `None` in the `Rc`'s niche: a field added to
    /// `Flit` sends every flit hop back through the stack.
    #[test]
    fn flit_and_option_flit_are_two_words() {
        assert_eq!(std::mem::size_of::<Flit>(), 16);
        assert_eq!(std::mem::size_of::<Option<Flit>>(), 16);
    }

    /// The packed word answers exactly what the packet says, for every
    /// index of packets with several header and payload lengths, and
    /// keeps answering it after `clone`, `rebind` and `mark_corrupt`.
    #[test]
    fn packed_word_matches_the_packet_at_every_index() {
        fn check(f: &Flit, idx: u16, corrupt: bool) {
            let p = f.packet();
            let kind = if idx + 1 == p.total_flits() {
                FlitKind::Tail
            } else if idx == 0 {
                FlitKind::Head
            } else if idx < p.header_flits() {
                FlitKind::Header
            } else {
                FlitKind::Payload
            };
            assert_eq!(f.kind(), kind, "{f:?}");
            assert_eq!(f.idx(), idx);
            assert_eq!(f.is_head(), idx == 0);
            assert_eq!(f.is_tail(), idx + 1 == p.total_flits());
            assert_eq!(f.is_header(), idx < p.header_flits());
            assert_eq!(f.corrupted(), corrupt);
            assert!(!f.dropped());
        }
        // System sizes and flit widths give 1 to 33 header flits.
        for (hosts, bits) in [(2, 64), (16, 8), (64, 8), (256, 8), (256, 32)] {
            for payload in [0u16, 1, 2, 7, 64] {
                let dests = DestSet::from_nodes(hosts, (1..hosts as u32).step_by(3).map(NodeId));
                let unicast = PacketBuilder::unicast(NodeId(0), NodeId(1), payload, hosts);
                let multicast = PacketBuilder::multicast(NodeId(0), dests, payload);
                for b in [unicast, multicast] {
                    let p = Rc::new(b.bits_per_flit(bits).build());
                    let q = Rc::new(p.with_header(p.header().clone()));
                    for idx in 0..p.total_flits() {
                        let mut f = Flit::new(p.clone(), idx);
                        check(&f, idx, false);
                        check(&f.clone(), idx, false);
                        check(&f.rebind(q.clone()), idx, false);
                        f.mark_corrupt();
                        check(&f, idx, true);
                        check(&f.clone(), idx, true);
                        check(&f.rebind(q.clone()), idx, true);
                    }
                }
            }
        }
    }

    #[test]
    fn corruption_survives_rebind_and_clone() {
        let p = pkt(2);
        let mut f = Flit::new(p.clone(), 1);
        assert!(!f.corrupted());
        f.mark_corrupt();
        assert!(f.corrupted());
        assert!(f.clone().corrupted());
        let q = Rc::new(p.with_header(p.header().clone()));
        assert!(f.rebind(q).corrupted());
    }
}
