//! The typed request/response pair of the serving API.
//!
//! A [`PricingRequest`] names the payoff to price (any [`Payoff`] — the
//! vanilla styles, knock-out barriers, Bermudan schedules), the option's
//! parameters, and which outputs to compute ([`OutputSet`]); the matching
//! [`PricingResponse`] carries the price and, when requested, the full
//! first-order [`Greeks`]. One submission may mix payoffs freely: the
//! micro-batcher splits it into per-payoff-class device batches and the
//! aggregator reassembles responses in submission order.

use bop_finance::greeks::Greeks;
use bop_finance::payoff::Payoff;
use bop_finance::types::OptionParams;
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Which outputs a request wants, as a small bit set:
/// `OutputSet::PRICE | OutputSet::GREEKS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputSet(u8);

impl OutputSet {
    /// The price (always computed; every useful set contains it).
    pub const PRICE: OutputSet = OutputSet(1);
    /// Delta, gamma, theta, vega and rho alongside the price.
    pub const GREEKS: OutputSet = OutputSet(1 << 1);

    /// Whether every output in `other` is requested here.
    pub fn contains(self, other: OutputSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no output is requested.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parse a `+`-separated list of output names (`"price"`,
    /// `"greeks"`, `"price+greeks"`), as accepted by the bench binaries'
    /// `--outputs` flag.
    ///
    /// # Errors
    /// Returns the unrecognised token.
    pub fn parse(s: &str) -> Result<OutputSet, String> {
        let mut set = OutputSet(0);
        for token in s.split('+') {
            match token.trim() {
                "price" => set |= OutputSet::PRICE,
                "greeks" => set |= OutputSet::GREEKS,
                other => return Err(format!("unknown output {other:?}")),
            }
        }
        Ok(set)
    }
}

impl Default for OutputSet {
    /// Price only.
    fn default() -> OutputSet {
        OutputSet::PRICE
    }
}

impl BitOr for OutputSet {
    type Output = OutputSet;
    fn bitor(self, rhs: OutputSet) -> OutputSet {
        OutputSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for OutputSet {
    fn bitor_assign(&mut self, rhs: OutputSet) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for OutputSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bit, name) in [(OutputSet::PRICE, "price"), (OutputSet::GREEKS, "greeks")] {
            if self.contains(bit) {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// One option to price: the payoff, the option's market and contract
/// parameters (its `style` field is ignored — `payoff` governs
/// exercise), and the outputs to compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricingRequest {
    /// The payoff priced.
    pub payoff: Payoff,
    /// The option parameters.
    pub params: OptionParams,
    /// The outputs to compute.
    pub outputs: OutputSet,
}

impl PricingRequest {
    /// A price-only request for `params` exercised per its `style`
    /// ([`Payoff::from_style`]).
    pub fn from_style(params: OptionParams) -> PricingRequest {
        PricingRequest {
            payoff: Payoff::from_style(params.style),
            params,
            outputs: OutputSet::PRICE,
        }
    }

    /// A price-only request under `payoff`.
    pub fn price_only(params: OptionParams, payoff: Payoff) -> PricingRequest {
        PricingRequest { payoff, params, outputs: OutputSet::PRICE }
    }

    /// A price + Greeks request under `payoff`.
    pub fn with_greeks(params: OptionParams, payoff: Payoff) -> PricingRequest {
        PricingRequest { payoff, params, outputs: OutputSet::PRICE | OutputSet::GREEKS }
    }

    /// Whether this request wants Greeks.
    pub fn wants_greeks(&self) -> bool {
        self.outputs.contains(OutputSet::GREEKS)
    }
}

/// One priced request, in submission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricingResponse {
    /// The price, from the device batch.
    pub price: f64,
    /// The Greeks, when [`OutputSet::GREEKS`] was requested.
    pub greeks: Option<Greeks>,
}

impl PricingResponse {
    /// The placeholder a response slot holds until its chunk reports
    /// back (callers never observe it: `wait` blocks until every slot is
    /// filled or the request fails).
    pub(crate) fn pending() -> PricingResponse {
        PricingResponse { price: 0.0, greeks: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_sets_combine_parse_and_print() {
        let both = OutputSet::PRICE | OutputSet::GREEKS;
        assert!(both.contains(OutputSet::PRICE));
        assert!(both.contains(OutputSet::GREEKS));
        assert!(!OutputSet::PRICE.contains(OutputSet::GREEKS));
        assert_eq!(OutputSet::parse("price").unwrap(), OutputSet::PRICE);
        assert_eq!(OutputSet::parse("price+greeks").unwrap(), both);
        assert_eq!(OutputSet::parse("greeks").unwrap().to_string(), "greeks");
        assert_eq!(both.to_string(), "price+greeks");
        assert!(OutputSet::parse("vega").is_err());
        assert_eq!(OutputSet::default(), OutputSet::PRICE);
    }

    #[test]
    fn from_style_maps_the_untyped_path() {
        let mut o = OptionParams::example();
        o.style = bop_finance::ExerciseStyle::European;
        let r = PricingRequest::from_style(o);
        assert_eq!(r.payoff, Payoff::European);
        assert!(!r.wants_greeks());
        assert!(PricingRequest::with_greeks(o, Payoff::American).wants_greeks());
    }
}
