"""one_blas_thread: the OpenBLAS thread count is held at 1 inside the block
and restored after it, by nested and overlapping holders alike."""

import sys
import threading

import pytest

from netid import blas


@pytest.fixture()
def fake_blas(monkeypatch):
    """A stand-in OpenBLAS whose thread count starts at 3."""
    state = {"threads": 3}

    def put(n):
        state["threads"] = n

    monkeypatch.setattr(blas, "_openblas", lambda: (lambda: state["threads"],
                                                    put))
    return state


def test_holds_one_thread_and_restores(fake_blas):
    with blas.one_blas_thread() as held:
        assert held is True
        assert fake_blas["threads"] == 1
    assert fake_blas["threads"] == 3


def test_restores_when_the_block_raises(fake_blas):
    with pytest.raises(KeyError):
        with blas.one_blas_thread():
            raise KeyError("inside")
    assert fake_blas["threads"] == 3


def test_nested_holders_restore_once_the_last_leaves(fake_blas):
    with blas.one_blas_thread():
        with blas.one_blas_thread():
            assert fake_blas["threads"] == 1
        assert fake_blas["threads"] == 1
    assert fake_blas["threads"] == 3


def test_overlapping_threads_restore_the_first_count(fake_blas):
    # more holder threads than cores, switching often, so a lost update of
    # the holder count would leave the count at 1 or restore it early
    seen = []

    def hold():
        for _ in range(300):
            with blas.one_blas_thread():
                seen.append(fake_blas["threads"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert fake_blas["threads"] == 3


def test_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_blas_thread() as held:
        assert held is False


def test_lookup_finds_nothing_when_no_library_loads(monkeypatch):
    def fail(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(blas.ctypes, "CDLL", fail)
    assert blas._openblas.__wrapped__() is None


@pytest.mark.skipif(blas._openblas() is None, reason="numpy's BLAS is not "
                                                     "OpenBLAS")
def test_real_openblas_count_is_held_and_restored():
    get, _ = blas._openblas()
    before = get()
    with blas.one_blas_thread():
        assert get() == 1
    assert get() == before
