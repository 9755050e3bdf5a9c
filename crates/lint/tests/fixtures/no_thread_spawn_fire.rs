// Fixture: linted under the virtual path crates/baselines/src/fixture.rs
// — ad-hoc threading outside the worker pool is how scheduling
// nondeterminism sneaks back in.
use std::thread;

pub fn fan_out() {
    let h = thread::spawn(|| 42);
    let _ = h.join();
    thread::scope(|_s| {});
}
