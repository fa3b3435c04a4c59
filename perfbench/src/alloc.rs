//! Counting global allocator: the system allocator plus a relaxed counter of
//! allocation calls, read around the in-process fold to give
//! `overlap-core.fold_allocs_per_line` — and [`pin_malloc`], which fixes the
//! system allocator's tunables for the benchmark run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The benchmark's global allocator.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `ptr`, `layout`
        // and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far by the whole
/// process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Fix glibc malloc's size thresholds for this process.
///
/// By default glibc raises its mmap threshold each time it frees a mapped
/// block and trims the heap top back to the kernel past twice that. Which
/// of the simulation's 1 MiB payload copies and the serve leg's multi-MiB
/// bodies then get mapped, unmapped and faulted in afresh depends on the
/// order earlier blocks happened to be freed in, across threads: on a
/// 2-vCPU VM, runs of one `paper-figs` seed made 0.5M to 3.8M page faults
/// and their passes took up to twice as long.
/// Fixed values turn the adjustment off: blocks under 4 MiB come from the
/// heap, and a heap keeps up to 16 MiB of free top. The arena count stays
/// glibc's own, since capping it makes the server's connection threads
/// contend for the allocator lock. Call before any thread starts.
pub fn pin_malloc() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        for (param, value) in [(M_MMAP_THRESHOLD, 4 << 20), (M_TRIM_THRESHOLD, 16 << 20)] {
            // SAFETY: `mallopt` takes two integers and only sets allocator
            // parameters; every parameter here is a documented glibc one
            // with a value in its range.
            let ok = unsafe { mallopt(param, value) };
            if ok != 1 {
                eprintln!("perfbench: mallopt({param}, {value}) was refused");
            }
        }
    }
}
