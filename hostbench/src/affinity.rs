//! The process's CPU affinity, through the C library: `std` has no API
//! for it.
//!
//! Co-runs pin themselves to one CPU. At engine width 1 their core
//! threads never run at once: they pass one baton. So pinning takes no
//! parallelism away. What it removes is the cross-CPU wake-up latency of
//! each baton hand-off, which on a virtualized host swings with other
//! tenants' load.

use std::os::raw::{c_int, c_ulong};

/// Bits per `cpu_set_t` word.
const WORD_BITS: usize = c_ulong::BITS as usize;

/// A `cpu_set_t`: one bit per CPU, for up to 1024 CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct CpuSet([c_ulong; 1024 / WORD_BITS]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

impl CpuSet {
    /// The calling thread's affinity, or `None` where it cannot be read.
    #[must_use]
    pub fn current() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut set = CpuSet([0; 1024 / WORD_BITS]);
            // SAFETY: `set` is a writable buffer of exactly the size passed,
            // laid out as `cpu_set_t`; pid 0 names the calling thread.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            (rc == 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Makes `self` the calling thread's affinity. Threads it starts later
    /// inherit it. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `self` is a readable buffer of exactly the size passed,
            // laid out as `cpu_set_t`; pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// The lowest CPU in the set.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        (0..1024).find(|&c| self.0[c / WORD_BITS] >> (c % WORD_BITS) & 1 == 1)
    }

    /// The set holding only CPU `cpu`.
    #[must_use]
    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 1024 / WORD_BITS]);
        set.0[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_and_first_agree() {
        for cpu in [0, 1, 63, 64, 1023] {
            assert_eq!(CpuSet::only(cpu).first(), Some(cpu));
        }
        assert_eq!(CpuSet([0; 1024 / WORD_BITS]).first(), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_current_set_names_a_cpu() {
        let set = CpuSet::current().expect("affinity is readable");
        assert!(set.first().is_some());
    }
}
