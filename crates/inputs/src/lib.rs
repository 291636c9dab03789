//! # ompfuzz-inputs
//!
//! Random floating-point **input generation** for differential OpenMP
//! testing, inherited from the Varity framework (§III-D of the paper).
//!
//! The module generates five kinds of floating-point numbers:
//!
//! | class | definition |
//! |---|---|
//! | [`FpClass::Normal`]          | IEEE 754-2008 normal numbers |
//! | [`FpClass::Subnormal`]       | IEEE 754-2008 subnormal numbers |
//! | [`FpClass::AlmostInf`]       | close to ±INF but still normal (extreme case, not in the Standard) |
//! | [`FpClass::AlmostSubnormal`] | close to the subnormal range but still normal (extreme case) |
//! | [`FpClass::Zero`]            | ±0 |
//!
//! [`InputGenerator`] materializes a [`TestInput`] (one value per kernel
//! parameter, plus the initial value of the `comp` accumulator) for a
//! generated [`Program`](ompfuzz_ast::Program); `INPUT_SAMPLES_PER_RUN`
//! distinct inputs are drawn per program test.

pub mod class;
pub mod generator;
pub mod testinput;

pub use class::{classify_f32, classify_f64, ClassMix, FpClass};
pub use generator::{input_stream_seed, InputGenerator};
pub use testinput::{write_input, InputValue, TestInput};
