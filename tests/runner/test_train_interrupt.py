"""KeyboardInterrupt during training exits cleanly with a flushed history."""

import numpy as np
import pytest

from repro.nn import Adam, Dense, Flatten, Network, TrainConfig, TrainingEngine, fit


def _problem():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1, 4, 4))
    y = rng.integers(0, 4, size=64)
    network = Network([Flatten(), Dense(16, 4, rng)], (1, 4, 4))
    return network, x, y


@pytest.mark.parametrize("mid_epoch", [True, False])
def test_interrupt_mid_fit_flushes_partial_history(monkeypatch, mid_epoch):
    network, x, y = _problem()
    interrupt_at = 2
    batches_per_epoch = 2
    calls = []
    train_batch = TrainingEngine.train_batch

    def interrupting(self, *args, **kwargs):
        # Interrupt at epoch `interrupt_at`'s first batch, or its second.
        if len(calls) == interrupt_at * batches_per_epoch + int(mid_epoch):
            raise KeyboardInterrupt("simulated SIGINT")
        calls.append(None)
        return train_batch(self, *args, **kwargs)

    monkeypatch.setattr(TrainingEngine, "train_batch", interrupting)
    config = TrainConfig(epochs=10, batch_size=len(x) // batches_per_epoch)
    with pytest.raises(KeyboardInterrupt) as excinfo:
        fit(network, Adam(network.parameters(), lr=1e-3), x, y, config, np.random.default_rng(1))

    history = excinfo.value.partial_history
    assert history.interrupted is True
    assert len(history.loss) == interrupt_at  # completed epochs only
    assert len(history.epoch_seconds) == interrupt_at
    assert history.seconds > 0.0
    # The float32 parameter binding unwound with the interrupt.
    assert all(p.data.dtype == np.float64 for p in network.parameters())


def test_uninterrupted_fit_is_not_marked():
    network, x, y = _problem()
    history = fit(
        network,
        Adam(network.parameters(), lr=1e-3),
        x,
        y,
        TrainConfig(epochs=2, batch_size=32),
        np.random.default_rng(1),
    )
    assert history.interrupted is False
    assert len(history.loss) == 2
