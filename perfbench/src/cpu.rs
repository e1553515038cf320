//! CPU placement: which CPUs this process may use, and pinning the calling
//! thread to one of them (glibc's `sched_getaffinity`/`sched_setaffinity`).

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread (and every thread it spawns later) to `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} outside cpu_set_t"));
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pin the calling client thread `client` to the `client`-th allowed CPU
/// (no-op with fewer allowed CPUs than clients).
pub fn pin_client(client: usize, clients: usize) {
    let cpus = allowed_cpus();
    if cpus.len() >= clients {
        if let Err(e) = pin_to(cpus[client]) {
            eprintln!("perfbench: client {client} unpinned: {e}");
        }
    }
}
