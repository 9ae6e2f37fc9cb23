//! A `dd`-style block-streaming workload exercising the bulk memory ops.
//!
//! Not part of any paper table (Tables 1–3 predate the bulk API and must
//! stay cycle-identical), so it lives outside the suites. It exercises the
//! page-chunked transfer path end to end, and the cross-backend checksum
//! test below proves the bulk ops don't change program semantics under
//! any scheme.
//!
//! The shape is classic `dd if=... of=... conv=swab`: read a block,
//! transform it, write it out, with a handful of scratch buffers
//! allocated per "file" and recycled between them.

use crate::{mix, Ctx, Prng, WResult, Workload};
use dangle_interp::backend::Backend;
use dangle_vmm::Machine;

/// The block-streaming workload. See the [module docs](self).
#[derive(Clone, Copy, Debug)]
pub struct Dd {
    /// Block size in bytes (the classic `bs=`).
    pub block_bytes: usize,
    /// Blocks per simulated file.
    pub blocks: usize,
    /// Number of files streamed (buffers are freed and reallocated
    /// between files, exercising the allocator too).
    pub files: usize,
}

impl Default for Dd {
    fn default() -> Dd {
        Dd { block_bytes: 8192, blocks: 48, files: 4 }
    }
}

impl Workload for Dd {
    fn name(&self) -> &'static str {
        "dd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let pool = ctx.pool_create(0)?;
        let mut rng = Prng::new(0xdd_b10c);
        let mut checksum = 0u64;
        let mut host = vec![0u8; self.block_bytes];

        for file in 0..self.files {
            let src = ctx.alloc_bytes(self.block_bytes, Some(pool))?;
            let dst = ctx.alloc_bytes(self.block_bytes, Some(pool))?;
            ctx.memset(dst, 0, self.block_bytes)?;
            for block in 0..self.blocks {
                // "Read" a block from the device: patterned host data in.
                let tag = (file * self.blocks + block) as u64;
                for (i, b) in host.iter_mut().enumerate() {
                    *b = (tag as u8).wrapping_add(i as u8).rotate_left(3);
                }
                ctx.write_buf(src, &host)?;
                ctx.io_wait(200);
                // Transform: byte-swap pairs (conv=swab) through the
                // simulated buffers.
                ctx.read_buf(src, &mut host)?;
                for pair in host.chunks_exact_mut(2) {
                    pair.swap(0, 1);
                }
                ctx.write_buf(dst, &host)?;
                // Spot-check a few words of the output block.
                for _ in 0..4 {
                    let off = (rng.below((self.block_bytes - 8) as u64 / 8) * 8) as usize;
                    checksum = mix(checksum, ctx.get(dst, off / 8)?);
                }
                ctx.compute(50);
            }
            // Every 256th byte of the final block feeds the checksum.
            ctx.read_buf(dst, &mut host)?;
            for i in (0..self.block_bytes).step_by(256) {
                checksum = mix(checksum, host[i] as u64);
            }
            ctx.free(src, Some(pool))?;
            ctx.free(dst, Some(pool))?;
        }
        ctx.pool_destroy(pool)?;
        Ok(checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_interp::backend::{
        Backend, NativeBackend, PoolBackend, ShadowBackend, ShadowPoolBackend,
    };
    use dangle_vmm::Machine;

    /// The bulk ops must not change program semantics: every backend —
    /// per-word defaults and page-chunked MMU overrides alike — produces
    /// the identical checksum.
    #[test]
    fn checksum_is_backend_independent() {
        let w = Dd { block_bytes: 4096, blocks: 6, files: 2 };
        let run = |backend: &mut dyn Backend| {
            let mut m = Machine::free_running();
            w.run(&mut m, backend).expect("dd must run clean")
        };
        let native = run(&mut NativeBackend::new());
        assert_eq!(native, run(&mut PoolBackend::new()));
        assert_eq!(native, run(&mut ShadowBackend::new()));
        assert_eq!(native, run(&mut ShadowPoolBackend::new()));
    }
}
