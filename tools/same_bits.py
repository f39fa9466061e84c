"""Print sha1s that tell whether two source trees compute the same bits.

Run it in each tree and compare the outputs:

    python tools/same_bits.py > before.txt    # in the old tree
    python tools/same_bits.py > after.txt     # in the new tree
    diff before.txt after.txt

It imports ``glgat`` from the ``src/`` next to it, takes no options and
writes nothing but a temporary checkpoint. Every line is ``label variant
sha1``:

- ``n15.checkpoint``: the checkpoint file after ``train`` with seed 0 for 2
  epochs (the CLI's other defaults) on synthetic N=15 data (seed 42,
  T=700) at the acceptance widths;
- ``n15.arrays``: that file's bytes after its header line, so that a change
  of the header alone changes ``n15.checkpoint`` and not this line;
- ``n15.forecast``: that model's batched forecasts of the test windows;
- ``n15.streaming``: its forecasts of the first eight test windows, one
  window per call (so the model's group cache serves the repeated time
  groups, in floors whose attention makes its pairwise term in one
  product per call);
- ``n15.reload``: the same forecasts from the model loaded back from that
  file, which must equal ``n15.forecast``;
- ``n15.grad``: every parameter gradient of one recorded step over four
  training windows, in checkpoint order;
- ``n15.gradcheck``: every value the loss closure of ``check_gradients``
  returns over two training windows, the recorded call's and each
  perturbed one's (two sampled entries per tensor, rng seed 0), so that
  the floors a perturbed call takes from the group cache are covered;
- ``n207.streaming`` and ``n207.batched``: an untrained seeded model's
  forecasts of eight consecutive test windows, one window per call (so
  the model's group cache serves the repeated time groups) and in one call;
- ``n207.grad``: one recorded step's gradients over one window;
- ``n325.streaming``: as at N=207, for the full variant.

A run takes about 15 seconds on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from glgat.data import generate_synthetic, split_and_window  # noqa: E402
from glgat.gradcheck import check_gradients  # noqa: E402
from glgat.model import (  # noqa: E402
    N_GROUPS,
    VARIANTS,
    StackConfig,
    load_checkpoint,
    model_forward,
    prepare_model,
    save_checkpoint,
)
from glgat.training import (  # noqa: E402
    TrainConfig,
    batch_smooth_l1,
    predict,
    stack_inputs,
    stack_targets,
    train,
)

# the widths of the acceptance tests, `glgat gradcheck` and the benchmark
ACCEPTANCE = dict(group_width=4, h_head=2, h_temporal=2, h_deep=4, h_pe=10, h_e=4)
LARGE_VARIANTS = ("full", "ablation2", "ablation3")  # one per attention path
STREAMED_WINDOWS = 8


def sha1(*arrays: np.ndarray) -> str:
    digest = hashlib.sha1()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:12]


def setup(n: int, t: int, seed: int, variant: str):
    graph, series, _ = generate_synthetic(n=n, t=t, seed=seed)
    splits = split_and_window(series, p=N_GROUPS, q=N_GROUPS)
    config = StackConfig(n=n, variant=variant, **ACCEPTANCE)
    train_series = series.slice(0, splits.split_sizes[0])
    return splits, prepare_model(config, graph, train_series, splits.stats, seed=0)


def step_gradients(model, windows) -> str:
    model.zero_grad()
    loss = batch_smooth_l1(model_forward(model, stack_inputs(windows)), *stack_targets(windows))
    loss.backward()
    return sha1(*(t.grad for t in model.named_params().values()))


def checked_values(model, windows) -> str:
    inputs, targets = stack_inputs(windows), stack_targets(windows)
    values = []

    def fn():
        values.append(batch_smooth_l1(model_forward(model, inputs), *targets))
        return values[-1]

    check_gradients(fn, model.named_params(), max_entries_per_tensor=2, rng=np.random.default_rng(0))
    return sha1(*(v.data for v in values))


def streamed(model, windows) -> str:
    return sha1(*(predict(model, windows[i : i + 1]) for i in range(len(windows))))


def forecasts(label: str, n: int, t: int, variant: str, gradients: bool) -> None:
    splits, model = setup(n, t, 7, variant)
    windows = splits.test[:STREAMED_WINDOWS]
    print(f"{label}.streaming {variant} {streamed(model, windows)}", flush=True)
    if gradients:
        print(f"{label}.batched {variant} {sha1(predict(model, windows))}")
        print(f"{label}.grad {variant} {step_gradients(model, splits.train[:1])}", flush=True)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        for variant in VARIANTS:
            splits, model = setup(15, 700, 42, variant)
            train(model, splits.train, splits.val, TrainConfig(seed=0, max_epochs=2))
            save_checkpoint(model, path)
            blob = path.read_bytes()
            body = blob.partition(b"\n")[2]
            print(f"n15.checkpoint {variant} {sha1(np.frombuffer(blob, np.uint8))}")
            print(f"n15.arrays {variant} {sha1(np.frombuffer(body, np.uint8))}")
            print(f"n15.forecast {variant} {sha1(predict(model, splits.test))}")
            print(f"n15.streaming {variant} {streamed(model, splits.test[:STREAMED_WINDOWS])}")
            print(f"n15.reload {variant} {sha1(predict(load_checkpoint(path), splits.test))}")
            print(f"n15.grad {variant} {step_gradients(model, splits.train[:4])}")
            print(f"n15.gradcheck {variant} {checked_values(model, splits.train[:2])}", flush=True)
    for variant in LARGE_VARIANTS:
        forecasts("n207", 207, 700, variant, gradients=True)
    forecasts("n325", 325, 700, "full", gradients=False)


if __name__ == "__main__":
    main()
