//! On-chip FIFO channels (OpenCL `pipe` objects).
//!
//! A [`PipeHub`] owns every pipe visible to one execution context and is
//! threaded through the engines' resumable entry points. The engines
//! never block: a pipe op that cannot make progress (read from empty,
//! write to full) suspends the work-item and surfaces as
//! [`RunOutcome::Stalled`](crate::interp::RunOutcome::Stalled) from the
//! engine, leaving the scheduler (a launch-graph co-scheduler in
//! `bop-ocl`, or the paired kernel in a test harness) to resume it once
//! the peer has made progress. The successful-op counter lets that
//! scheduler detect deadlock deterministically: a full resume round with
//! no new successful op can never unblock.
//!
//! Element values are stored bit-packed in 64-bit cells (the same
//! encoding as the lanes engine's register cells), so FIFO contents are
//! engine independent by construction.

use std::collections::VecDeque;

use crate::types::ScalarType;
use crate::value::Value;

/// Pack a scalar [`Value`] into a 64-bit FIFO cell. The encoding is the
/// same one the lanes engine uses for register cells, so a value written
/// by either engine reads back identically in the other.
pub fn encode_value(v: Value) -> u64 {
    match v {
        Value::Bool(b) => b as u64,
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(x) => x.to_bits() as u64,
        Value::F64(x) => x.to_bits(),
        Value::Ptr(_) => unreachable!("pointers cannot travel through pipes"),
    }
}

/// Unpack a 64-bit FIFO cell back into a typed scalar [`Value`].
pub fn decode_value(ty: ScalarType, bits: u64) -> Value {
    match ty {
        ScalarType::Bool => Value::Bool(bits != 0),
        ScalarType::I32 => Value::I32(bits as u32 as i32),
        ScalarType::I64 => Value::I64(bits as i64),
        ScalarType::F32 => Value::F32(f32::from_bits(bits as u32)),
        ScalarType::F64 => Value::F64(f64::from_bits(bits)),
    }
}

/// One FIFO channel: fixed element type, bounded depth, bit-packed data.
#[derive(Debug, Clone)]
pub struct PipeState {
    /// Element type every read/write must match.
    pub elem: ScalarType,
    /// Capacity in elements; writes past it stall.
    pub depth: usize,
    /// Queued element bit patterns, oldest first.
    data: VecDeque<u64>,
}

impl PipeState {
    /// Number of elements currently queued.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// All pipes of one execution context, keyed by pipe id.
///
/// Ids are dense and allocated by the creator (the `bop-ocl` context, or
/// a test harness); the hub itself only validates that an id exists and
/// that the element type matches.
#[derive(Debug, Default)]
pub struct PipeHub {
    pipes: Vec<PipeState>,
    total_ops: u64,
}

impl PipeHub {
    /// Create a pipe with the given element type and capacity, returning
    /// its id. Depth 0 is clamped to 1 (a zero-capacity blocking FIFO
    /// could never transfer anything).
    pub fn create(&mut self, elem: ScalarType, depth: usize) -> u32 {
        let id = self.pipes.len() as u32;
        self.pipes.push(PipeState { elem, depth: depth.max(1), data: VecDeque::new() });
        id
    }

    /// The pipe with id `id`, if it exists.
    pub fn get(&self, id: u32) -> Option<&PipeState> {
        self.pipes.get(id as usize)
    }

    /// Total successful reads + writes since creation. A co-scheduler
    /// round that leaves this unchanged made no pipe progress.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Validate that pipe `id` exists and carries `elem` elements; the
    /// error strings are the deterministic trap payloads shared by all
    /// engines.
    fn check(&self, id: u32, elem: ScalarType) -> Result<(), String> {
        match self.pipes.get(id as usize) {
            None => Err(format!("unknown pipe #{id}")),
            Some(p) if p.elem != elem => {
                Err(format!("pipe #{id} carries {}, accessed as {}", p.elem, elem))
            }
            Some(_) => Ok(()),
        }
    }

    /// Attempt to pop the oldest element of pipe `id`. `Ok(None)` means
    /// the FIFO is empty (the caller stalls); `Err` is a trap payload.
    pub fn try_read(&mut self, id: u32, elem: ScalarType) -> Result<Option<u64>, String> {
        self.check(id, elem)?;
        let bits = self.pipes[id as usize].data.pop_front();
        if bits.is_some() {
            self.total_ops += 1;
        }
        Ok(bits)
    }

    /// Attempt to push `bits` onto pipe `id`. `Ok(false)` means the FIFO
    /// is full (the caller stalls); `Err` is a trap payload.
    pub fn try_write(&mut self, id: u32, elem: ScalarType, bits: u64) -> Result<bool, String> {
        self.check(id, elem)?;
        let p = &mut self.pipes[id as usize];
        if p.data.len() >= p.depth {
            return Ok(false);
        }
        p.data.push_back(bits);
        self.total_ops += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_depth() {
        let mut hub = PipeHub::default();
        let p = hub.create(ScalarType::F64, 2);
        assert!(hub.try_write(p, ScalarType::F64, 1).unwrap());
        assert!(hub.try_write(p, ScalarType::F64, 2).unwrap());
        assert!(!hub.try_write(p, ScalarType::F64, 3).unwrap(), "depth 2 is full");
        assert_eq!(hub.try_read(p, ScalarType::F64).unwrap(), Some(1));
        assert!(hub.try_write(p, ScalarType::F64, 3).unwrap(), "space freed");
        assert_eq!(hub.try_read(p, ScalarType::F64).unwrap(), Some(2));
        assert_eq!(hub.try_read(p, ScalarType::F64).unwrap(), Some(3));
        assert_eq!(hub.try_read(p, ScalarType::F64).unwrap(), None, "empty stalls");
        assert_eq!(hub.total_ops(), 6, "stalled attempts are not progress");
    }

    #[test]
    fn zero_depth_clamps_to_one() {
        let mut hub = PipeHub::default();
        let p = hub.create(ScalarType::I32, 0);
        assert_eq!(hub.get(p).unwrap().depth, 1);
        assert!(hub.try_write(p, ScalarType::I32, 7).unwrap());
        assert!(!hub.try_write(p, ScalarType::I32, 8).unwrap());
    }

    #[test]
    fn misuse_traps_deterministically() {
        let mut hub = PipeHub::default();
        let p = hub.create(ScalarType::F64, 4);
        assert_eq!(hub.try_read(99, ScalarType::F64).unwrap_err(), "unknown pipe #99");
        assert_eq!(
            hub.try_write(p, ScalarType::I64, 0).unwrap_err(),
            "pipe #0 carries double, accessed as long"
        );
    }
}
