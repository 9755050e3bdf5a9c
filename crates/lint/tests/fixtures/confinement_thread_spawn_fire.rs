//! Fixture: thread creation reachable from a query entry point,
//! outside the sanctioned worker-pool file.

impl ParGir {
    pub fn rkr_batch(&self) {
        stripe();
    }
}

fn stripe() {
    let _h = std::thread::spawn(|| {});
}
