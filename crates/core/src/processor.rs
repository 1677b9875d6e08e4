//! The node payload trait and the per-cycle context.

use crate::telemetry::CycleCounters;
use djstar_dsp::AudioBuf;

/// Per-cycle context handed to every node processor.
///
/// The graph itself is application-agnostic; the caller of
/// [`PoolExecutor::run_cycle`](crate::exec::PoolExecutor::run_cycle)
/// supplies external audio buffers and a flat array of control values
/// (fader positions, EQ gains, …) that processors index by convention. The
/// engine passes controls only: its graph computes the deck audio in its
/// own front nodes, so `external_audio` is empty there.
#[derive(Debug, Clone, Copy)]
pub struct CycleCtx<'a> {
    /// Monotonically increasing cycle number (also the dependency epoch).
    pub epoch: u64,
    /// External audio inputs, one buffer per deck. Only the paper's
    /// fixed 67-node graph (`build_djstar_graph`, which has no front
    /// nodes) reads them, in tests; the engine passes none.
    pub external_audio: &'a [AudioBuf],
    /// External scalar controls (interpretation is up to the application).
    pub controls: &'a [f32],
    /// The executing worker's cycle counters, when telemetry or the flight
    /// recorder is armed. Processors with their own observability (e.g. the
    /// engine's network nodes) record into these; `None` costs nothing.
    pub counters: Option<&'a CycleCounters>,
}

impl<'a> CycleCtx<'a> {
    /// A context with no external inputs (useful in tests).
    pub fn bare(epoch: u64) -> CycleCtx<'static> {
        CycleCtx {
            epoch,
            external_audio: &[],
            controls: &[],
            counters: None,
        }
    }
}

/// A task-graph node payload: one audio computation per cycle.
///
/// `inputs` are the output buffers of the node's predecessors, in the order
/// the predecessors were declared when the graph was built. `output` is the
/// node's own buffer; it keeps its contents between cycles (processors
/// normally overwrite it completely).
///
/// Implementations must be `Send` (they migrate to worker threads) but need
/// not be `Sync`: the executors guarantee exclusive access during `process`.
pub trait Processor: Send {
    /// Compute this node for one cycle.
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>);

    /// Channel count of this node's output buffer (1 or 2; default stereo).
    fn output_channels(&self) -> usize {
        2
    }

    /// Downcast hook for applications that retune concrete processors at
    /// run time (e.g. the engine's event middleware turning EQ knobs).
    /// Implementations that support live control return `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Compute this node and the other members of its sibling group
    /// ([`TaskGraphBuilder::group`](crate::graph::TaskGraphBuilder::group))
    /// in one call, or decline. `output` is this node's buffer; `siblings`
    /// are the other members in group order; `inputs` are the outputs of
    /// the predecessors every member shares. A batch must leave every
    /// member's output and state exactly as its own [`process`](Self::process)
    /// would have, called in member order. Return `false`, having changed
    /// nothing, to decline: the executor then runs each member's
    /// `process`. The default declines.
    fn process_batch(
        &mut self,
        output: &mut AudioBuf,
        siblings: &mut [Sibling<'_>],
        inputs: &[&AudioBuf],
        ctx: &CycleCtx<'_>,
    ) -> bool {
        let _ = (output, siblings, inputs, ctx);
        false
    }

    /// True only for [`vacant`]'s placeholder: the node holds no processor
    /// of its own and must be given one (installed, or carried over by a
    /// generation swap) before it runs.
    fn is_vacant(&self) -> bool {
        false
    }
}

/// One other member of a sibling batch
/// ([`Processor::process_batch`]): its processor and its output buffer.
pub struct Sibling<'a> {
    /// The member's processor.
    pub processor: &'a mut dyn Processor,
    /// The member's output buffer.
    pub output: &'a mut AudioBuf,
}

/// The zero-sized placeholder a *hollow* generation's node holds: it says
/// how many output channels the node has and nothing else, so a staged
/// generation owns topology, buffers and blueprint but no DSP state. A
/// generation swap refuses to run one (`SwapError::MissingPart`).
#[derive(Debug, Default, Clone, Copy)]
struct Vacant<const CHANNELS: usize>;

impl<const CHANNELS: usize> Processor for Vacant<CHANNELS> {
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        debug_assert!(false, "a vacant node ran: its generation was never filled");
        output.clear();
    }

    fn output_channels(&self) -> usize {
        CHANNELS
    }

    fn is_vacant(&self) -> bool {
        true
    }
}

/// A boxed `Vacant` placeholder with `channels` outputs (1 = mono, anything else
/// stereo — the two layouts a [`Processor`] may have). Zero-sized, so the
/// box owns no allocation and dropping it frees nothing.
pub fn vacant(channels: usize) -> Box<dyn Processor> {
    if channels == 1 {
        Box::new(Vacant::<1>)
    } else {
        Box::new(Vacant::<2>)
    }
}

/// A pass-through processor: copies its first input (or clears the output
/// when there is none). Useful as a placeholder and in tests.
#[derive(Debug, Default, Clone)]
pub struct Passthrough;

impl Processor for Passthrough {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        match inputs.first() {
            Some(src) if src.channels() == output.channels() && src.frames() == output.frames() => {
                output.copy_from(src)
            }
            Some(src) => {
                output.clear();
                output.mix_add(src, 1.0);
            }
            None => output.clear(),
        }
    }
}

/// A processor driven by a plain closure (tests and synthetic workloads).
pub struct FnProcessor<F>(pub F);

impl<F> Processor for FnProcessor<F>
where
    F: FnMut(&[&AudioBuf], &mut AudioBuf, &CycleCtx<'_>) + Send,
{
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        (self.0)(inputs, output, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_copies_first_input() {
        let src = AudioBuf::from_fn(2, 8, |ch, i| (ch + i) as f32);
        let mut out = AudioBuf::zeroed(2, 8);
        let mut p = Passthrough;
        p.process(&[&src], &mut out, &CycleCtx::bare(0));
        assert_eq!(out, src);
    }

    #[test]
    fn passthrough_without_inputs_clears() {
        let mut out = AudioBuf::from_fn(2, 4, |_, _| 5.0);
        let mut p = Passthrough;
        p.process(&[], &mut out, &CycleCtx::bare(0));
        assert_eq!(out.peak(), 0.0);
    }

    #[test]
    fn passthrough_downmixes_on_layout_mismatch() {
        let src = AudioBuf::from_fn(2, 4, |ch, _| if ch == 0 { 1.0 } else { 3.0 });
        let mut out = AudioBuf::zeroed(1, 4);
        let mut p = Passthrough;
        p.process(&[&src], &mut out, &CycleCtx::bare(0));
        assert_eq!(out.sample(0, 0), 2.0);
    }

    #[test]
    fn fn_processor_runs_closure() {
        let mut p = FnProcessor(|_: &[&AudioBuf], out: &mut AudioBuf, ctx: &CycleCtx<'_>| {
            out.samples_mut()[0] = ctx.epoch as f32;
        });
        let mut out = AudioBuf::zeroed(1, 4);
        p.process(&[], &mut out, &CycleCtx::bare(7));
        assert_eq!(out.sample(0, 0), 7.0);
    }
}
