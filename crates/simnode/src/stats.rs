//! Simulation outcome statistics.

/// Per-application results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppSimStats {
    /// Simulated time at which the application's last task completed, ns.
    pub finish_ns: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Total core time spent executing tasks, ns (at wall rate).
    pub busy_ns: u64,
    /// Tasks executed away from their home socket.
    pub remote_tasks: u64,
    /// Tasks with a home socket (denominator for the remote fraction).
    pub homed_tasks: u64,
}

/// Node-level results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Per-application statistics, in input order.
    pub apps: Vec<AppSimStats>,
    /// OS preemptions performed (oversubscription only).
    pub preemptions: u64,
    /// Time threads spent spinning on a held scheduler lock, core-ns
    /// (the lock-holder-preemption cost).
    pub lock_spin_ns: u64,
    /// Time threads spent busy-idling (no work, busy policy), core-ns.
    pub idle_spin_ns: u64,
    /// Cross-application switches of a core in nOS-V mode (each charged the
    /// handoff cost).
    pub cross_app_switches: u64,
    /// Quantum-expiry switches decided by the nOS-V policy.
    pub quantum_switches: u64,
    /// DLB core lend events.
    pub dlb_lends: u64,
    /// DLB core reclaim events.
    pub dlb_reclaims: u64,
    /// Events processed (diagnostics).
    pub events: u64,
}
