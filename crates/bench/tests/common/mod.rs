//! The per-thread counting `#[global_allocator]` shared by the zero-alloc
//! gates (`alloc_zero.rs`, `cache_alloc.rs`).
//!
//! An integration test is its own crate root, so declaring `mod common;`
//! installs the allocator in that one test binary only, never in the
//! library or in other tests. The scoped `#[allow]` overrides the crate's
//! `unsafe_code = "deny"` lint for the one `GlobalAlloc` impl.
//!
//! The count is **per thread**. libtest runs a file's tests at the same
//! time on separate threads (one per CPU by default), so a process-wide
//! count would charge one gate's measurement window with its siblings'
//! set-up allocations, and the verdict would depend on how the harness
//! threads interleave. A per-thread delta sees exactly what the gate's own
//! thread allocated. That is sound only while the measured path runs
//! entirely on the calling thread: allocations made on any other thread go
//! uncounted, so a change that moves measured work off the calling thread
//! must change the gate too.

use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor: touching it inside the
    // allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (including reallocations) made so far by the calling
/// thread. Deallocations are not subtracted, so a zero delta means no heap
/// traffic at all on this thread.
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.get()
}

/// Asserts that the calling thread's count moved since `before`, across a
/// warm-up that must allocate. Without this, a counter that silently
/// stopped counting would make every `delta == 0` gate pass without
/// checking anything.
pub(crate) fn assert_counted_since(before: u64, warm_up: &str) {
    assert!(
        allocations() > before,
        "{warm_up} made no allocation on this thread: the counting \
         allocator is not counting, so a zero steady-state delta would \
         prove nothing"
    );
}

struct CountingAlloc;

#[allow(unsafe_code)]
mod counting_impl {
    use super::{CountingAlloc, ALLOCATIONS};
    use std::alloc::{GlobalAlloc, Layout, System};

    fn count() {
        // `try_with`: a thread in TLS teardown must not panic inside the
        // allocator; whatever it allocates then simply goes uncounted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so the caller's `GlobalAlloc` guarantees carry over as they are.
    // `count` only bumps a const-initialized thread-local: it neither
    // allocates (no re-entry) nor panics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
