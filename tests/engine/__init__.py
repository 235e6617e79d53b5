"""Tests for the execution engines (:mod:`repro.engine`)."""
