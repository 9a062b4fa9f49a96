"""speechq: non-intrusive speech quality estimation.

A numpy implementation of a dilated-convolution quality estimator
trained jointly on waveform reconstruction and an earth-mover's-distance
loss over ordered score classes, plus the synthetic data pipeline and
evaluation metrics needed to exercise it end to end at desk scale.
"""
