//! Concrete replacement/prefetch policies.
//!
//! * [`AlwaysMiss`] — the paper's experimental baseline (`H = 0`, `M = 1`);
//! * [`Fifo`], [`Lru`], [`Lfu`], [`RandomPolicy`] — classic replacement;
//! * [`Belady`] — the clairvoyant optimum (upper-bounds every policy);
//! * [`Markov`] — first-order next-task predictor with prefetching.

mod always_miss;
mod belady;
mod fifo;
mod lfu;
mod lru;
mod markov;
mod random;

pub use always_miss::AlwaysMiss;
pub use belady::Belady;
pub use fifo::Fifo;
pub use lfu::Lfu;
pub use lru::Lru;
pub use markov::Markov;
pub use random::RandomPolicy;
