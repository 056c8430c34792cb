"""Clocked big-step interpreters for a While language, with a small-step
oracle and a differential property-testing harness."""
