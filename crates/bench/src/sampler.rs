//! A `SIGPROF` sampler: where a run's host CPU time goes, by crate and by
//! function.
//!
//! [`profile`] arms `setitimer(ITIMER_PROF)` on this process, runs a
//! closure and disarms the timer. Each signal stores the interrupted
//! program counter and a return address in a preallocated buffer: the
//! handler allocates nothing and takes no lock. [`Samples::resolve`] then
//! maps every address through /proc/self/maps and `addr2line -i -f -C`
//! (binutils). Without addr2line the report says so and names addresses.
//! A sample counts for the crate of its innermost inlined frame. A sample
//! in a shared library (libc's `memmove`, a futex wrapper) counts for the
//! caller its return address names, when that lies in the executable.
//!
//! The return address is the link register on aarch64 and the word at the
//! stack pointer on x86-64, read with `process_vm_readv` so that a bad
//! stack pointer cannot fault. Either one names the caller while a
//! frameless leaf runs, which is what libc's copies and system-call
//! wrappers are; in a function with a frame it names nothing useful, and
//! only library samples read it.
//!
//! `sigaction`, `setitimer`, `process_vm_readv`, `getpid` and
//! `__errno_location` are declared here by hand, since no `libc` crate is
//! vendored, with glibc's layouts for Linux x86-64 and aarch64; any other
//! target fails to compile. Once installed, the handler stays: a signal
//! still in flight after [`profile`] returns is dropped, not fatal.
//!
//! One command profiles the `msg_storm` program and a P = 1024 ring:
//! `cargo test --release -p fx-bench --test sampler -- --ignored --nocapture`.

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("the sampler reads Linux x86-64 and aarch64 signal contexts only");

use std::collections::{BTreeMap, HashMap};
use std::ffi::c_void;
use std::fmt;
use std::io::Read;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Duration;

/// Samples the buffer holds: over four minutes of CPU time at 250 Hz.
const CAP: usize = 1 << 16;

/// The interrupted program counter of sample `i`.
static PCS: [AtomicUsize; CAP] = [const { AtomicUsize::new(0) }; CAP];
/// The return address of sample `i` (0: unreadable).
static RAS: [AtomicUsize; CAP] = [const { AtomicUsize::new(0) }; CAP];
/// Signals taken since the timer was armed, including any past [`CAP`].
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Set while a [`profile`] runs; the handler records only then.
static ARMED: AtomicBool = AtomicBool::new(false);
/// This process, for `process_vm_readv`.
static PID: AtomicI32 = AtomicI32::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;

/// Byte offsets into `ucontext_t` of the program counter and of the
/// register the return address comes from (x86-64: `gregs[REG_RIP]`,
/// `gregs[REG_RSP]`; aarch64: `pc`, `regs[30]`).
#[cfg(target_arch = "x86_64")]
const PC_AT: usize = 168;
#[cfg(target_arch = "x86_64")]
const RA_FROM: usize = 160;
#[cfg(target_arch = "aarch64")]
const PC_AT: usize = 440;
#[cfg(target_arch = "aarch64")]
const RA_FROM: usize = 424;

/// glibc's `struct sigaction`.
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    fn process_vm_readv(pid: i32, local: *const IoVec, nlocal: u64, remote: *const IoVec, nremote: u64, flags: u64) -> isize;
    fn getpid() -> i32;
    fn __errno_location() -> *mut i32;
}

/// The `SIGPROF` handler: one slot of the buffer, atomics only.
extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, uc: *mut c_void) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let uc = uc.cast::<u8>().cast_const();
    // SAFETY: an `SA_SIGINFO` handler's third argument is the interrupted
    // thread's `ucontext_t`, and both offsets lie inside its register set.
    let (pc, reg) = unsafe { (uc.add(PC_AT).cast::<usize>().read(), uc.add(RA_FROM).cast::<usize>().read()) };
    let i = TAKEN.fetch_add(1, Ordering::Relaxed);
    if i < CAP {
        PCS[i].store(pc, Ordering::Relaxed);
        RAS[i].store(return_address(reg), Ordering::Relaxed);
    }
}

/// The word at the stack pointer `sp`, or 0 where it cannot be read.
#[cfg(target_arch = "x86_64")]
fn return_address(sp: usize) -> usize {
    let mut word = 0usize;
    let local = IoVec { base: (&raw mut word).cast(), len: size_of::<usize>() };
    let remote = IoVec { base: sp as *mut c_void, len: size_of::<usize>() };
    // SAFETY: `local` is `word`'s bytes, writable; the kernel checks
    // `remote` and fails rather than faulting on a bad address. A failure
    // sets errno, which the interrupted code may be about to read, so the
    // handler puts it back.
    unsafe {
        let errno = __errno_location().read();
        let n = process_vm_readv(PID.load(Ordering::Relaxed), &local, 1, &remote, 1, 0);
        __errno_location().write(errno);
        if n == size_of::<usize>() as isize {
            word
        } else {
            0
        }
    }
}

/// The link register is the return address.
#[cfg(target_arch = "aarch64")]
fn return_address(lr: usize) -> usize {
    lr
}

/// Arm the process's profiling timer at `period` (zero disarms it).
fn arm(period: Duration) {
    let tv = TimeVal { sec: period.as_secs() as i64, usec: i64::from(period.subsec_micros()) };
    let it = ITimerVal { interval: tv, value: tv };
    // SAFETY: `it` is a valid `itimerval`; the old value is not wanted.
    let rc = unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
}

/// Disarms the timer when a profile ends, by return or by panic.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        arm(Duration::ZERO);
        ARMED.store(false, Ordering::SeqCst);
    }
}

/// Run `f` under a `SIGPROF` every `period` of process CPU time (every
/// thread's), and return its result with the samples taken. One profile
/// at a time per process.
pub fn profile<R>(period: Duration, f: impl FnOnce() -> R) -> (R, Samples) {
    assert!(period >= Duration::from_micros(1), "a sampling period of at least 1 us");
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let act = SigAction { handler: on_sigprof as *const () as usize, mask: [0; 16], flags: SA_SIGINFO | SA_RESTART, restorer: 0 };
        // SAFETY: `act` is a valid glibc `struct sigaction` whose handler
        // has the `SA_SIGINFO` signature.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
    });
    assert!(!ARMED.swap(true, Ordering::SeqCst), "one profile at a time");
    // SAFETY: `getpid` has no preconditions.
    PID.store(unsafe { getpid() }, Ordering::Relaxed);
    TAKEN.store(0, Ordering::SeqCst);
    let armed = Armed;
    arm(period);
    let value = f();
    drop(armed);
    let taken = TAKEN.load(Ordering::SeqCst);
    let kept = taken.min(CAP);
    let pairs = (0..kept).map(|i| (PCS[i].load(Ordering::Relaxed), RAS[i].load(Ordering::Relaxed))).collect();
    (value, Samples { pairs, dropped: taken - kept, period })
}

/// What one [`profile`] recorded: raw addresses, resolved on demand.
pub struct Samples {
    /// (program counter, return address) per sample.
    pairs: Vec<(usize, usize)>,
    /// Samples past the buffer's capacity, not recorded.
    dropped: usize,
    period: Duration,
}

/// One file-backed mapping of /proc/self/maps.
struct Mapping {
    start: usize,
    end: usize,
    path: String,
}

/// The file-backed mappings of this process, and each file's load bias:
/// what to subtract from a runtime address to get the address in the
/// file that addr2line reads.
fn mappings() -> (Vec<Mapping>, HashMap<String, usize>) {
    let text = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    let (mut maps, mut bias) = (Vec::new(), HashMap::new());
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (Some(range), Some(offset), Some(path)) = (f.first(), f.get(2), f.get(5)) else { continue };
        let Some((s, e)) = range.split_once('-') else { continue };
        let hex = |h: &str| usize::from_str_radix(h, 16).unwrap_or(0);
        let (start, end) = (hex(s), hex(e));
        if hex(offset) == 0 && !bias.contains_key(*path) {
            // A position-independent object (ELF type 3) is linked at 0, so
            // its bias is where its first page landed; an executable
            // linked at a fixed address has none.
            let mut head = [0u8; 17];
            let read = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut head));
            let pie = read.is_ok() && head[..4] == *b"\x7fELF" && head[16] == 3;
            bias.insert(path.to_string(), if pie { start } else { 0 });
        }
        maps.push(Mapping { start, end, path: path.to_string() });
    }
    (maps, bias)
}

/// One frame addr2line names: a function and its `file:line`.
struct Frame {
    function: String,
    at: String,
}

/// The frames addr2line names at each file address of `exe`, innermost
/// first; `None` when addr2line cannot run.
fn symbolize(exe: &str, addrs: &[usize]) -> Option<HashMap<usize, Vec<Frame>>> {
    let mut out = HashMap::new();
    for batch in addrs.chunks(2048) {
        let args = batch.iter().map(|a| format!("{a:#x}"));
        let run = Command::new("addr2line").args(["-e", exe, "-i", "-f", "-C", "-a"]).args(args).output().ok()?;
        if !run.status.success() {
            return None;
        }
        // Per address: its own line, then a function line and a
        // file:line line per frame.
        let mut addr = None;
        let mut lines = String::from_utf8_lossy(&run.stdout).lines().map(str::to_string).collect::<Vec<_>>().into_iter();
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("0x") {
                addr = usize::from_str_radix(hex, 16).ok();
            } else if let Some(a) = addr {
                let at = lines.next().unwrap_or_default();
                out.entry(a).or_insert_with(Vec::new).push(Frame { function: line, at });
            }
        }
    }
    Some(out)
}

/// The crate a frame belongs to. Its source path says, when it has one:
/// `crates/<name>/` is `fx_<name>`, the standard library's
/// `library/<name>/` and a dependency's `vendor/<name>-<version>/` are
/// `<name>`. Otherwise the function's first path segment
/// (`<fx_runtime::mailbox::Mailbox>::deposit` → `fx_runtime`), or the
/// whole name when it has no path (the hand-written `fx_coro_switch`).
fn crate_of(frame: &Frame) -> String {
    let after = |dir: &str| frame.at.split_once(dir).and_then(|(_, rest)| rest.split('/').next()).filter(|d| !d.is_empty());
    if let Some(d) = after("/crates/") {
        return format!("fx_{d}");
    }
    if let Some(d) = after("/library/") {
        return d.to_string();
    }
    if let Some(d) = after("/vendor/") {
        return d.rsplit_once('-').map_or(d, |(name, _)| name).replace('-', "_");
    }
    let name = frame.function.trim_start_matches(['<', '&', '*']).trim_start_matches("dyn ").trim_start_matches("mut ");
    name.split("::").next().filter(|c| !c.is_empty()).unwrap_or(name).to_string()
}

/// A `file:line` from the crate's directory or the standard library's
/// on: `crates/runtime/src/mailbox.rs:296`, `library/core/src/….rs:7`.
fn source(at: &str) -> &str {
    ["/crates/", "/library/", "/vendor/"].iter().find_map(|d| at.find(d).map(|i| &at[i + 1..])).unwrap_or(at)
}

/// `name`, cut to a table row's width.
fn clip(name: &str) -> String {
    match name.char_indices().nth(100) {
        Some((i, _)) => format!("{}…", &name[..i]),
        None => name.to_string(),
    }
}

impl Samples {
    /// Name every sample's crate, innermost function and symbol.
    pub fn resolve(&self) -> Report {
        let (maps, bias) = mappings();
        let exe = std::fs::read_link("/proc/self/exe").map(|p| p.to_string_lossy().into_owned()).unwrap_or_default();
        let object = |addr: usize| maps.iter().find(|m| m.start <= addr && addr < m.end).map(|m| m.path.as_str());
        let in_exe = |addr: usize| (object(addr) == Some(exe.as_str())).then(|| addr - bias.get(&exe).copied().unwrap_or(0));
        let mut wanted: Vec<usize> = self.pairs.iter().filter_map(|&(pc, ra)| in_exe(pc).or_else(|| in_exe(ra))).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let frames = symbolize(&exe, &wanted);
        // (crate, innermost source line, outermost function) at a file
        // address of the executable.
        let name = |a: usize| -> Option<(String, String, &str)> {
            let fs = frames.as_ref()?.get(&a).filter(|fs| fs.first().is_some_and(|f| f.function != "??"))?;
            let symbol = fs[fs.len() - 1].function.as_str();
            Some((crate_of(&fs[0]), format!("{} in {}", source(&fs[0].at), symbol), symbol))
        };
        let mut report = Report {
            samples: self.pairs.len(),
            dropped: self.dropped,
            period: self.period,
            addr2line: frames.is_some(),
            by_crate: Vec::new(),
            by_line: Vec::new(),
            by_symbol: Vec::new(),
        };
        let (mut crates, mut lines, mut symbols) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for &(pc, ra) in &self.pairs {
            let (krate, line, symbol) = match (in_exe(pc), object(pc)) {
                (Some(a), _) => match name(a) {
                    Some((krate, inner, outer)) => (krate, inner, outer.to_string()),
                    None => ("unresolved".to_string(), format!("exe+{a:#x}"), format!("exe+{a:#x}")),
                },
                (None, lib) => {
                    let lib = lib.map_or("[anonymous]", |p| p.rsplit('/').next().unwrap_or(p)).to_string();
                    match in_exe(ra).and_then(name) {
                        Some((krate, inner, outer)) => (krate, format!("{lib} under {inner}"), format!("{lib} under {outer}")),
                        None => (lib.clone(), lib.clone(), lib),
                    }
                }
            };
            *crates.entry(krate).or_insert(0) += 1;
            *lines.entry(line).or_insert(0) += 1;
            *symbols.entry(symbol).or_insert(0) += 1;
        }
        let ranked = |m: BTreeMap<String, usize>| {
            let mut v: Vec<(String, usize)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        };
        report.by_crate = ranked(crates);
        report.by_line = ranked(lines);
        report.by_symbol = ranked(symbols);
        report
    }
}

/// A resolved profile. Each list is ranked by samples, and each sums to
/// `samples`.
pub struct Report {
    /// Samples recorded.
    pub samples: usize,
    /// Samples past the buffer's capacity, not recorded.
    pub dropped: usize,
    /// The sampling period asked for.
    pub period: Duration,
    /// Whether addr2line named the addresses (otherwise every name is
    /// `exe+0x…` and every crate `unresolved`).
    pub addr2line: bool,
    /// Samples per crate of the innermost frame (a library sample: of its
    /// caller's innermost frame).
    pub by_crate: Vec<(String, usize)>,
    /// Samples per source line of the innermost frame, with the symbol
    /// it was inlined into: self time at the finest grain.
    pub by_line: Vec<(String, usize)>,
    /// Samples per outermost frame, the symbol the address lies in: its
    /// self time with what was inlined into it.
    pub by_symbol: Vec<(String, usize)>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} samples every {:?} of CPU time ({} dropped)", self.samples, self.period, self.dropped)?;
        if !self.addr2line {
            writeln!(f, "addr2line did not run: addresses are unresolved")?;
        }
        let n = self.samples.max(1) as f64;
        for (title, rows, top) in [("crate", &self.by_crate, 12), ("symbol", &self.by_symbol, 25), ("source line", &self.by_line, 25)] {
            writeln!(f, "\n{:>7} {:>6}  by {title}", "samples", "share")?;
            for (what, k) in rows.iter().take(top) {
                writeln!(f, "{k:>7} {:>5.1}%  {}", 100.0 * *k as f64 / n, clip(what))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{crate_of, Frame};

    fn krate(function: &str, at: &str) -> String {
        crate_of(&Frame { function: function.to_string(), at: at.to_string() })
    }

    #[test]
    fn a_frame_belongs_to_its_source_path_else_to_its_first_path_segment() {
        assert_eq!(krate("pop_tag", "/src/fx/crates/runtime/src/mailbox.rs:180"), "fx_runtime");
        assert_eq!(krate("lock", "/src/fx/vendor/parking_lot-0.12.3/src/mutex.rs:9"), "parking_lot");
        assert_eq!(krate("fold<T>", "/rustc/0123abcd/library/core/src/iter/mod.rs:7"), "core");
        assert_eq!(krate("<fx_runtime::mailbox::Mailbox>::deposit", "??:0"), "fx_runtime");
        assert_eq!(krate("<alloc::vec::Vec<u8> as core::ops::drop::Drop>::drop", "??:?"), "alloc");
        assert_eq!(krate("fx_coro_switch", "??:0"), "fx_coro_switch");
    }
}
