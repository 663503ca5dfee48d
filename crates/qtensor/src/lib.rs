//! # qtensor — a QTensor-style tensor-network circuit simulator
//!
//! The simulation substrate of the QCF reproduction. It turns circuits
//! (crate `qcircuit`) into tensor networks with QTensor's diagonal-gate rank
//! reduction, orders them with greedy line-graph heuristics, contracts them
//! by bucket elimination, and computes QAOA MaxCut energies edge-by-edge
//! over lightcones. Every intermediate tensor flows through a
//! [`ContractionHook`](contraction::ContractionHook) — the integration point
//! for the paper's compression framework (see `compressed`).
//!
//! A dense [`statevector::StateVector`] simulator provides exact ground
//! truth for validation.

pub mod amplitude;
pub mod checkpoint;
pub mod compressed;
pub mod compressed_state;
pub mod contraction;
pub mod energy;
pub mod ledger;
pub mod lightcone;
pub mod network;
pub mod ordering;
pub mod pairwise;
pub mod spill;
pub mod statevector;
pub mod trace;

pub use checkpoint::CkptError;
pub use compressed_state::{CompressedState, FaultStats, StateStats, TierBreakdown, VerifyReport};
pub use contraction::{
    contract_network, ContractError, ContractionHook, ContractionStats, NoopHook,
};
pub use energy::{EnergyReport, Simulator, Strategy};
pub use ledger::{ChunkRecord, ErrorLedger, LedgerSummary};
pub use lightcone::{lightcone, Lightcone};
pub use network::TensorNetwork;
pub use ordering::{InteractionGraph, OrderingHeuristic};
pub use spill::sweep_stale_dir;
pub use statevector::StateVector;
pub use trace::TraceHook;
