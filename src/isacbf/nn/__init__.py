"""The beamforming networks, their conv/pool kernels, loss and trainer."""
