//! A complete input vector for one test run, plus its serialized forms.

use std::fmt;

/// One input value, matching a kernel parameter's type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputValue {
    /// Value for an `int` parameter (trip counts, controls).
    Int(i64),
    /// Value for a floating-point scalar parameter.
    Fp(f64),
    /// Fill value for a floating-point array parameter: `main()` allocates
    /// `ARRAY_SIZE` elements all initialized to this value.
    ArrayFill(f64),
}

impl InputValue {
    /// The numeric payload regardless of kind.
    pub fn as_f64(&self) -> f64 {
        match *self {
            InputValue::Int(v) => v as f64,
            InputValue::Fp(v) | InputValue::ArrayFill(v) => v,
        }
    }

    /// Serialize for a command line (parsed back by the generated `main()`
    /// via `atoi`/`atof`). Floating-point values use `{:e}` which
    /// round-trips doubles exactly.
    pub fn to_arg(&self) -> String {
        match *self {
            InputValue::Int(v) => v.to_string(),
            InputValue::Fp(v) | InputValue::ArrayFill(v) => format_f64_arg(v),
        }
    }
}

impl fmt::Display for InputValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_arg())
    }
}

/// Format an `f64` so that C's `atof`/`strtod` reads back the identical
/// value (shortest round-trip scientific notation; specials spelled out).
pub fn format_f64_arg(v: f64) -> String {
    let mut s = String::new();
    write_f64_arg(&mut s, v);
    s
}

/// [`format_f64_arg`], appended to an existing buffer (no allocation).
pub fn write_f64_arg(out: &mut String, v: f64) {
    use fmt::Write;
    if v.is_nan() {
        out.push_str("nan");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "inf" } else { "-inf" });
    } else {
        let _ = write!(out, "{v:e}");
    }
}

/// The input for one execution: initial `comp` plus one value per kernel
/// parameter, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct TestInput {
    /// Initial value of the `comp` accumulator (first `argv` slot).
    pub comp_init: f64,
    /// Values for the kernel parameters.
    pub values: Vec<InputValue>,
}

impl TestInput {
    /// Serialize to the `argv` tail expected by the generated `main()`.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::with_capacity(1 + self.values.len());
        args.push(format_f64_arg(self.comp_init));
        args.extend(self.values.iter().map(|v| v.to_arg()));
        args
    }

    /// One-line textual form, as written into the `_inputs` files the
    /// campaign stores next to each test.
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// [`Self::to_line`], appended to an existing buffer: the corpus saver
    /// streams every input of a test into one reused buffer instead of
    /// materializing a `Vec<String>` per line.
    pub fn write_line(&self, out: &mut String) {
        use fmt::Write;
        write_f64_arg(out, self.comp_init);
        for v in &self.values {
            out.push(' ');
            match *v {
                InputValue::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                InputValue::Fp(x) | InputValue::ArrayFill(x) => write_f64_arg(out, x),
            }
        }
    }

    /// Parse a line previously written by [`TestInput::to_line`]. Values
    /// are reconstructed as `Fp`/`Int` by shape: integers without `.`/`e`
    /// parse as `Int`. Array-fill distinction is recovered from the program
    /// signature by the harness, so here fills parse as `Fp`.
    pub fn parse_line(line: &str) -> Option<TestInput> {
        let mut parts = line.split_whitespace();
        let comp_init: f64 = parts.next()?.parse().ok()?;
        let mut values = Vec::new();
        for tok in parts {
            if !tok.contains(['.', 'e', 'E']) && tok.parse::<i64>().is_ok() {
                values.push(InputValue::Int(tok.parse().ok()?));
            } else {
                values.push(InputValue::Fp(tok.parse().ok()?));
            }
        }
        Some(TestInput { comp_init, values })
    }
}

/// Serialize an input vector to one s-expression line — the exact form the
/// trigger catalog stores. Floats are written as `f64::to_bits`, so two
/// inputs print the same text only if every value is bit-identical (`0.0`
/// vs `-0.0` and NaN payloads stay distinct); the reducer keys its verdict
/// memo on this text for the same reason.
pub fn write_input(input: &TestInput) -> String {
    let mut out = format!("(input {}", input.comp_init.to_bits());
    for v in &input.values {
        match v {
            InputValue::Int(i) => out.push_str(&format!(" (i {i})")),
            InputValue::Fp(f) => out.push_str(&format!(" (f {})", f.to_bits())),
            InputValue::ArrayFill(f) => out.push_str(&format!(" (a {})", f.to_bits())),
        }
    }
    out.push(')');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip_exactly() {
        for &v in &[
            1.5,
            -2.75e-300,
            5e-324, // smallest subnormal
            f64::MAX,
            f64::MIN_POSITIVE, // smallest normal
            -0.0,
        ] {
            let s = format_f64_arg(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} via {s}");
        }
    }

    #[test]
    fn to_args_order_and_shapes() {
        let input = TestInput {
            comp_init: 1.5,
            values: vec![
                InputValue::Int(42),
                InputValue::Fp(2.5e-3),
                InputValue::ArrayFill(-1.0),
            ],
        };
        let args = input.to_args();
        assert_eq!(args.len(), 4);
        assert_eq!(args[0], "1.5e0");
        assert_eq!(args[1], "42");
        assert_eq!(args[2].parse::<f64>().unwrap(), 2.5e-3);
    }

    #[test]
    fn line_round_trip() {
        let input = TestInput {
            comp_init: -3.25,
            values: vec![InputValue::Int(7), InputValue::Fp(1.25e10)],
        };
        let line = input.to_line();
        let parsed = TestInput::parse_line(&line).unwrap();
        assert_eq!(parsed.comp_init, -3.25);
        assert_eq!(parsed.values.len(), 2);
        assert_eq!(parsed.values[0], InputValue::Int(7));
        assert_eq!(parsed.values[1].as_f64(), 1.25e10);
    }

    #[test]
    fn specials_serialize_parseably() {
        assert_eq!(format_f64_arg(f64::INFINITY), "inf");
        assert_eq!(format_f64_arg(f64::NEG_INFINITY), "-inf");
        assert_eq!(format_f64_arg(f64::NAN), "nan");
    }

    #[test]
    fn as_f64_coerces_ints() {
        assert_eq!(InputValue::Int(3).as_f64(), 3.0);
        assert_eq!(InputValue::ArrayFill(2.5).as_f64(), 2.5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TestInput::parse_line("").is_none());
        assert!(TestInput::parse_line("abc def").is_none());
    }
}
