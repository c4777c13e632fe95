"""Cohort-trend estimation from independent cross-sectional surveys.

The pipeline: ingest survey records into unit year-age cell means, build
the analysis domain from the populated cells, assemble a penalized
least-squares system (data rows plus second-difference curvature blocks on
the trend field and on the cohort initial levels), and drive the two
smoothing weights with an iterative loop until the average correlations of
adjacent estimates hit their reference values.  A forward simulator and an
independent dense solver serve as verification oracles.
"""

__version__ = "0.1.0"
