//@ rel: crates/predictors/src/mypolicy.rs
pub struct MyPolicy {
    table: Vec<u8>,
}

impl LltPolicy for MyPolicy {
    fn on_fill(&mut self, set: usize) {
        shared_update(set);
    }
}

pub struct Generic<K> {
    key: K,
}

impl<K: Copy> LevelPolicy for Generic<K> {
    fn on_evict(&mut self, set: usize) {
        generic_update(set);
    }
}
