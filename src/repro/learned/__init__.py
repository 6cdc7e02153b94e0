"""Learned cost-model subsystem distilled from journaled engine samples.

The run store and event journal persist every (hardware config, mapping,
layer) -> PPA evaluation a co-search performs.  This package closes the
loop from that recorded data back into search speed:

* :mod:`repro.learned.features` — fixed-width NumPy featurization of
  (hw, :class:`~repro.mapping.gemm_mapping.GemmMapping`, layer shape),
  including a relaxed differentiable variant over continuous tile sizes.
* :mod:`repro.learned.dataset` — training-array extraction by replaying
  ``engine_sample`` journal events across a
  :class:`~repro.tracking.store.RunStore`.
* :mod:`repro.learned.model` — a small pure-NumPy MLP/ridge ensemble
  with train/predict/save/load and calibrated uncertainty.
* :mod:`repro.learned.screen` — :class:`ScreeningPPAEngine`, which ranks
  candidate batches with the learned model and forwards only the
  most promising (plus uncertainty-escalated) candidates to the wrapped
  analytical engine.  Everything it surfaces carries exact analytical
  PPA; screening disabled is bit-identical to no wrapper at all.
* :mod:`repro.learned.oneloop` — a DOSA-style differentiable one-loop
  mapping search (gradient descent over relaxed tile sizes against the
  learned model, projected back to legal mappings, verified
  analytically), registered as a mapping tool alongside FlexTensor.
"""
