//! Out-of-band switch control for the online fault-response protocol
//! (DESIGN.md §10, §15): quiesce purges and epoch-versioned two-phase
//! routing-table installs.
//!
//! A [`SwitchCtl`] is a small shared cell created per switch by the system
//! builder and held by both the switch (which polls it at the top of every
//! tick) and the fault-response orchestrator (which flips it from outside
//! the engine). This models the SP2-style service interface — switches
//! take management commands over a path separate from the data network —
//! without threading new parameters through [`netsim::engine::Engine`].
//!
//! Two commands exist:
//!
//! * **purge** — while raised, the switch kills every resident worm
//!   (returning one credit upstream per buffered flit, so link-level
//!   credit conservation holds) and swallows arriving stragglers. The
//!   orchestrator raises it only after a drain grace period, so whatever
//!   a purge kills was wedged against a dead link; the end-to-end
//!   retransmission ledger re-sends the payload later.
//! * **prepare / commit / abort** — the two-phase table install. Every
//!   table set carries a monotonically increasing *epoch*.
//!   [`SwitchCtl::prepare`] stages `(epoch, tables)` without activating
//!   anything; [`SwitchCtl::commit`] arms the staged epoch for
//!   activation; [`SwitchCtl::abort`] discards an unarmed stage. The
//!   switch swaps an armed set in on the first tick it finds itself
//!   completely empty, stamping [`SwitchCtl::committed_epoch`]. A
//!   coordinator that crashes between prepare and commit therefore
//!   leaves the fabric on the old epoch everywhere — never on a mix —
//!   and its journal replay can re-drive the commit (DESIGN.md §15).
//!
//! Swapping only-when-empty means no in-flight worm ever decodes against
//! a mix of old and new tables; epoch stamps make the complementary
//! cross-switch property auditable (no cycle may see two switches on
//! diverging committed epochs unless the laggard has an armed commit
//! pending — see `netsim::engine::Engine::enable_epoch_audit`). Every
//! change of the committed or armed epoch bumps the engine's
//! [`EpochChanges`] counter the cell was built with, so the audit
//! recomputes its verdict only when an epoch moved.

use mintopo::route::RouteTables;
use netsim::engine::EpochChanges;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Shared control cell between one switch and the fault-response
/// orchestrator.
#[derive(Debug, Default)]
pub struct SwitchCtl {
    purging: Cell<bool>,
    empty: Cell<bool>,
    /// Epoch of the table set the switch currently decodes against
    /// (0 = the build-time tables).
    committed: Cell<u64>,
    /// Staged-but-inactive table set from a `prepare`.
    staged: RefCell<Option<(u64, Rc<RouteTables>)>>,
    /// Epoch armed for activation by a `commit`; always matches the
    /// staged epoch while `Some`.
    armed: Cell<Option<u64>>,
    /// Bumped whenever `committed` or `armed` changes.
    changes: EpochChanges,
}

impl SwitchCtl {
    /// Creates a control cell (no purge raised, nothing staged, epoch 0)
    /// whose epoch changes no engine watches.
    pub fn new() -> Rc<Self> {
        Rc::new(SwitchCtl::default())
    }

    /// Creates a control cell that bumps `changes` on every change of its
    /// committed or armed epoch — the engine's
    /// [`netsim::engine::Engine::epoch_changes`], so its torn-install
    /// audit sees the change.
    pub fn with_epoch_changes(changes: EpochChanges) -> Rc<Self> {
        Rc::new(SwitchCtl {
            changes,
            ..SwitchCtl::default()
        })
    }

    /// Raises the purge command; the switch clears itself on its next tick
    /// and keeps swallowing arrivals until [`SwitchCtl::end_purge`].
    pub fn begin_purge(&self) {
        self.purging.set(true);
    }

    /// Lowers the purge command; the switch resumes normal operation.
    pub fn end_purge(&self) {
        self.purging.set(false);
    }

    /// `true` while the purge command is raised.
    pub fn purging(&self) -> bool {
        self.purging.get()
    }

    /// Phase one: stages `(epoch, tables)` without activating anything.
    /// Overwrites any earlier stage that has not been activated yet — the
    /// newer epoch supersedes it, even if it was already armed (a wedged
    /// switch may sit on an armed swap across a whole response episode;
    /// the next episode's decision subsumes it). Re-preparing the
    /// currently armed epoch is an idempotent no-op, so a recovering
    /// coordinator can blindly re-drive its prepare sequence.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not advance past the committed epoch or
    /// regresses below an armed epoch — either way the coordinator has
    /// lost track of its own protocol.
    pub fn prepare(&self, epoch: u64, tables: Rc<RouteTables>) {
        assert!(
            epoch > self.committed.get(),
            "prepare epoch {epoch} must exceed committed epoch {}",
            self.committed.get()
        );
        if let Some(armed) = self.armed.get() {
            assert!(
                epoch >= armed,
                "prepare({epoch}) regresses below armed epoch {armed}"
            );
            if epoch == armed {
                return; // idempotent re-prepare of an armed epoch
            }
            self.armed.set(None); // newer epoch supersedes the armed swap
            self.changes.bump();
        }
        *self.staged.borrow_mut() = Some((epoch, tables));
    }

    /// Phase two: arms the staged `epoch` for activation; the switch swaps
    /// it in on the first tick it is completely empty. Idempotent: a
    /// commit of an epoch already armed or already committed is a no-op,
    /// so a recovering coordinator can re-drive commits it may or may not
    /// have issued before crashing. Returns `true` if the commit armed
    /// (or had already armed/activated) the epoch, `false` if nothing
    /// matching was staged.
    pub fn commit(&self, epoch: u64) -> bool {
        if self.committed.get() >= epoch || self.armed.get() == Some(epoch) {
            return true; // already done (or in flight)
        }
        let staged = self.staged.borrow();
        match &*staged {
            Some((e, _)) if *e == epoch => {
                self.armed.set(Some(epoch));
                self.changes.bump();
                true
            }
            _ => false,
        }
    }

    /// Discards an unarmed stage of `epoch`. Returns `true` if a stage
    /// was discarded; `false` if nothing matching was staged or the epoch
    /// was already armed (a commit is a point of no return).
    pub fn abort(&self, epoch: u64) -> bool {
        if self.armed.get() == Some(epoch) {
            return false;
        }
        let mut staged = self.staged.borrow_mut();
        match &*staged {
            Some((e, _)) if *e == epoch => {
                *staged = None;
                true
            }
            _ => false,
        }
    }

    /// `true` while an armed table swap has not been activated — the
    /// switch must keep ticking until it finds itself empty and swaps.
    pub fn tables_pending(&self) -> bool {
        self.armed.get().is_some()
    }

    /// Epoch of a staged (prepared, possibly armed) table set.
    pub fn prepared_epoch(&self) -> Option<u64> {
        self.staged.borrow().as_ref().map(|(e, _)| *e)
    }

    /// Epoch armed for activation but not yet swapped in.
    pub fn pending_commit(&self) -> Option<u64> {
        self.armed.get()
    }

    /// Epoch of the active table set (0 until a first swap activates).
    pub fn committed_epoch(&self) -> u64 {
        self.committed.get()
    }

    /// Hands the armed table set to the switch, stamping the committed
    /// epoch. `None` while nothing is armed.
    pub(crate) fn take_committed(&self) -> Option<(u64, Rc<RouteTables>)> {
        let epoch = self.armed.get()?;
        let (e, tables) = self
            .staged
            .borrow_mut()
            .take()
            .expect("armed implies staged");
        debug_assert_eq!(e, epoch);
        self.armed.set(None);
        self.committed.set(epoch);
        self.changes.bump();
        Some((epoch, tables))
    }

    /// `true` if the switch reported itself completely empty (no staged
    /// flits, no resident worms, all buffer space free) at the end of its
    /// most recent tick. `false` before the first tick.
    ///
    /// The quiesce orchestrator polls this after a purge to confirm the
    /// fabric has drained before activating new tables.
    pub fn is_empty(&self) -> bool {
        self.empty.get()
    }

    pub(crate) fn set_empty(&self, empty: bool) {
        self.empty.set(empty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintopo::reach::{PortClass, PortInfo};
    use mintopo::route::SwitchTable;
    use netsim::destset::DestSet;
    use netsim::ids::NodeId;

    fn tables() -> Rc<RouteTables> {
        let port = |n: u32| PortInfo {
            class: PortClass::Down,
            reach: DestSet::singleton(4, NodeId(n)),
        };
        Rc::new(RouteTables::from_tables(
            vec![SwitchTable::from_ports(
                vec![port(0), port(1), port(2), port(3)],
                4,
            )],
            4,
        ))
    }

    #[test]
    fn purge_flag_toggles() {
        let ctl = SwitchCtl::new();
        assert!(!ctl.purging());
        ctl.begin_purge();
        assert!(ctl.purging());
        ctl.end_purge();
        assert!(!ctl.purging());
    }

    #[test]
    fn prepare_commit_activates_only_after_both_phases() {
        let ctl = SwitchCtl::new();
        assert_eq!(ctl.committed_epoch(), 0);
        ctl.prepare(1, tables());
        assert_eq!(ctl.prepared_epoch(), Some(1));
        assert!(!ctl.tables_pending(), "prepare alone must not arm");
        assert!(ctl.take_committed().is_none(), "unarmed stage stays put");
        assert!(ctl.commit(1));
        assert!(ctl.tables_pending());
        let (e, _) = ctl.take_committed().expect("armed swap hands over");
        assert_eq!(e, 1);
        assert_eq!(ctl.committed_epoch(), 1);
        assert!(!ctl.tables_pending());
    }

    #[test]
    fn abort_discards_unarmed_stage_only() {
        let ctl = SwitchCtl::new();
        ctl.prepare(1, tables());
        assert!(ctl.abort(1));
        assert_eq!(ctl.prepared_epoch(), None);
        assert!(!ctl.commit(1), "aborted stage cannot commit");

        ctl.prepare(2, tables());
        assert!(ctl.commit(2));
        assert!(!ctl.abort(2), "commit is a point of no return");
        assert!(ctl.take_committed().is_some());
    }

    #[test]
    fn commit_is_idempotent_across_a_redrive() {
        let ctl = SwitchCtl::new();
        ctl.prepare(1, tables());
        assert!(ctl.commit(1));
        // A recovering coordinator re-prepares and re-commits blindly.
        ctl.prepare(1, tables());
        assert!(ctl.commit(1));
        assert!(ctl.take_committed().is_some());
        assert_eq!(ctl.committed_epoch(), 1);
        // ...and a late duplicate commit after activation is a no-op.
        assert!(ctl.commit(1));
        assert!(ctl.take_committed().is_none());
    }

    #[test]
    fn newer_prepare_supersedes_unarmed_stage() {
        let ctl = SwitchCtl::new();
        ctl.prepare(1, tables());
        ctl.prepare(2, tables());
        assert_eq!(ctl.prepared_epoch(), Some(2));
        assert!(!ctl.commit(1), "superseded epoch is gone");
        assert!(ctl.commit(2));
    }

    #[test]
    fn newer_prepare_supersedes_wedged_armed_swap() {
        // A switch that never found itself empty still holds an armed
        // swap when the next episode decides; the newer epoch replaces it.
        let ctl = SwitchCtl::new();
        ctl.prepare(1, tables());
        ctl.commit(1);
        ctl.prepare(2, tables());
        assert!(!ctl.tables_pending(), "superseded arm is cleared");
        assert!(ctl.commit(2));
        assert_eq!(ctl.take_committed().map(|(e, _)| e), Some(2));
    }

    #[test]
    fn epoch_changes_count_every_committed_or_armed_change() {
        let changes = EpochChanges::default();
        let ctl = SwitchCtl::with_epoch_changes(changes.clone());
        ctl.prepare(1, tables());
        assert_eq!(changes.count(), 0, "staging alone changes no epoch");
        ctl.commit(1);
        assert_eq!(changes.count(), 1, "commit arms");
        ctl.commit(1);
        assert_eq!(changes.count(), 1, "a re-driven commit changes nothing");
        ctl.prepare(2, tables());
        assert_eq!(changes.count(), 2, "a newer prepare disarms");
        assert!(ctl.abort(2));
        assert_eq!(changes.count(), 2, "abort drops an unarmed stage only");
        ctl.prepare(3, tables());
        ctl.commit(3);
        assert_eq!(changes.count(), 3, "a commit after an abort arms");
        ctl.take_committed();
        assert_eq!(changes.count(), 4, "activation commits and disarms");
        ctl.begin_purge();
        ctl.end_purge();
        assert_eq!(changes.count(), 4, "purges touch no epoch");
    }

    #[test]
    #[should_panic(expected = "must exceed committed epoch")]
    fn prepare_must_advance_the_epoch() {
        let ctl = SwitchCtl::new();
        ctl.prepare(1, tables());
        ctl.commit(1);
        ctl.take_committed();
        ctl.prepare(1, tables());
    }
}
