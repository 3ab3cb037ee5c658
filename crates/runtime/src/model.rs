//! Machine cost models for the simulated multicomputer.
//!
//! The simulator charges virtual time using a LogGP-style model
//! (Culler et al. / Alexandrov et al.):
//!
//! * `o_send` / `o_recv` — per-message CPU overhead on the sender/receiver,
//! * `latency` — wire latency between send completion and earliest receipt,
//! * `gap_per_byte` — inverse bandwidth (seconds per payload byte),
//! * `flop_time` — seconds per sustained floating point operation,
//! * `mem_time` — seconds per byte of local memory traffic (used by
//!   memory-bound kernels such as the corner turn and histogram).
//!
//! The default parameters are calibrated to the Intel Paragon the paper
//! evaluated on (i860/XP nodes, NX message passing) *as seen by an
//! HPF-level runtime*: ~300 us per-message software cost on each side,
//! ~30 MB/s sustained packed bandwidth, ~10 MFLOP/s sustained per-node
//! compute. Absolute times are not the reproduction target; the
//! computation-to-communication ratio that drives every result shape is.

/// Cost parameters of the simulated machine.
///
/// All values are in seconds (or seconds per unit). See the module docs for
/// the meaning of each field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// CPU overhead on the sender per message.
    pub o_send: f64,
    /// CPU overhead on the receiver per message.
    pub o_recv: f64,
    /// Wire latency from send completion to earliest possible receipt.
    pub latency: f64,
    /// Seconds per byte of message payload (inverse bandwidth).
    pub gap_per_byte: f64,
    /// Seconds per sustained floating-point operation.
    pub flop_time: f64,
    /// Seconds per byte of local memory traffic for memory-bound kernels.
    pub mem_time: f64,
}

impl MachineModel {
    /// Parameters approximating a 1996 Intel Paragon node (i860/XP) as
    /// seen *by an HPF-level runtime* — the machine the paper measured:
    ///
    /// * per-message cost ~ 300 us on each side: NX software latency
    ///   (~100 us) plus the compiler-generated pack/unpack and
    ///   communication-schedule work of array assignments (Stichnoth et
    ///   al. report array-statement overheads well above raw NX costs);
    /// * sustained pipelined bandwidth ~ 30 MB/s including packing
    ///   (raw NX streams faster, but strided array sections do not);
    /// * sustained compute ~ 10 MFLOP/s of compiled Fortran;
    /// * memory system ~ 30 MB/s for strided copies.
    ///
    /// See EXPERIMENTS.md for the calibration discussion; result *shapes*
    /// (ratios, crossovers) are the reproduction target, not absolutes.
    pub fn paragon() -> Self {
        MachineModel {
            o_send: 300e-6,
            o_recv: 300e-6,
            latency: 60e-6,
            gap_per_byte: 1.0 / 30e6,
            flop_time: 1.0 / 10e6,
            mem_time: 1.0 / 30e6,
        }
    }

    /// A low-latency, high-bandwidth machine (roughly a modern cluster
    /// interconnect). Useful in tests and ablations to show how result
    /// shapes move when communication gets cheap.
    pub fn fast_network() -> Self {
        MachineModel {
            o_send: 1e-6,
            o_recv: 1e-6,
            latency: 2e-6,
            gap_per_byte: 1.0 / 1e9,
            flop_time: 1.0 / 1e9,
            mem_time: 1.0 / 4e9,
        }
    }

    /// A model where communication is free; under it, pure data parallelism
    /// is always optimal. Used by unit tests and ablation benches.
    pub fn zero_comm(flop_time: f64) -> Self {
        MachineModel {
            o_send: 0.0,
            o_recv: 0.0,
            latency: 0.0,
            gap_per_byte: 0.0,
            flop_time,
            mem_time: 0.0,
        }
    }

    /// Time the sender's CPU is occupied by an `nbytes`-sized message.
    #[inline]
    pub fn send_busy(&self, nbytes: usize) -> f64 {
        self.o_send + nbytes as f64 * self.gap_per_byte
    }

    /// Earliest arrival of a message that finished sending at `t_send_done`.
    #[inline]
    pub fn arrival(&self, t_send_done: f64) -> f64 {
        t_send_done + self.latency
    }

    /// Time the receiver's CPU is occupied accepting a message.
    #[inline]
    pub fn recv_busy(&self, _nbytes: usize) -> f64 {
        self.o_recv
    }

    /// Virtual cost of `n` floating point operations.
    #[inline]
    pub fn flops(&self, n: f64) -> f64 {
        n * self.flop_time
    }

    /// Virtual cost of touching `n` bytes of local memory.
    #[inline]
    pub fn mem_bytes(&self, n: f64) -> f64 {
        n * self.mem_time
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::paragon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_small_message_cost_is_software_dominated() {
        let m = MachineModel::paragon();
        let t = m.send_busy(8) + m.latency + m.recv_busy(8);
        // ~660 us end to end for a small message at the HPF runtime level.
        assert!(t > 500e-6 && t < 900e-6, "got {t}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = MachineModel::paragon();
        let t = m.send_busy(8 << 20); // 8 MiB
        // 8 MiB / 30 MB/s ~ 0.28 s
        assert!(t > 0.2 && t < 0.4, "got {t}");
    }

    #[test]
    fn zero_comm_only_charges_flops() {
        let m = MachineModel::zero_comm(1e-6);
        assert_eq!(m.send_busy(1 << 20), 0.0);
        assert_eq!(m.recv_busy(1 << 20), 0.0);
        assert!((m.flops(100.0) - 100e-6).abs() < 1e-18);
    }
}
