"""Container-format stability (golden blob) tests.

Checkpoints outlive the process that wrote them; a blob produced by any
released format version must decode bit-identically forever.  Two sets of
frozen blobs pin that down:

* **Version 1** (item-major sections, plain ``zlib.compress`` /
  multi-member ``gzip-mt`` / framed ``zlib-mt`` payloads): written by the
  last version-1 writer and never regenerable -- nothing writes that
  layout any more.  Today's decoder must read every one of them.
* **Version 2** (byte-plane sections, segmented single-stream deflate):
  today's decoder reads them, today's encoder reproduces them byte for
  byte (any intentional change must bump ``FORMAT_VERSION`` and these
  fixtures together), and each decodes to *exactly* what its version-1
  twin -- the same input through the old writer -- decodes to: the lossy
  stages did not move, only the lossless layout did.

The cases cover every kind of blob the system stores: a pipeline blob with
uint8 and with uint16 indices, an ``RPCK`` chunked stream, a temporal
delta (int16 residuals) and a lossless float array.

Temporal deltas whose residual went through the spatial filter
(``"filter"`` header key, ``filtered`` section) came after version 1, so
they have version-2 goldens only: int8 and int16 residuals, decoder and
encoder pinned alike.
"""

from __future__ import annotations

import base64
import gzip
import struct
import zlib as _zlib

import numpy as np
import pytest

from repro import CompressionConfig, WaveletCompressor
from repro.ckpt.manager import _lossless_body, deserialize_array, serialize_array_lossless
from repro.ckpt.temporal import TemporalEngine, decode_delta
from repro.config import TemporalConfig
from repro.core import container
from repro.core.chunked import chunked_compress, chunked_decompress
from repro.core.pipeline import inspect
from repro.lossless import get_codec


def golden_array() -> np.ndarray:
    """A fixed input, reproducible on any platform."""
    x = np.arange(48, dtype=np.float64).reshape(6, 8)
    return np.sin(x * 0.25) * 10.0 + 100.0


def rough_array() -> np.ndarray:
    """A second fixed input, large and rough enough for > 256 partitions."""
    x = np.arange(24 * 16, dtype=np.float64).reshape(24, 16)
    return np.sin(x * 0.37) * 40.0 + np.cos(x * x * 0.011) * 25.0


GOLDEN_CONFIG = CompressionConfig(
    n_bins=16, quantizer="proposed", spike_partitions=8, levels=2,
    backend="zlib", backend_level=6,
)
WIDE_CONFIG = CompressionConfig(
    quantizer="bounded", error_bound=0.2, levels=1, backend="gzip"
)
CHUNK_CONFIG = CompressionConfig(
    n_bins=16, quantizer="proposed", spike_partitions=8, levels=1,
    backend="gzip-mt", backend_threads=2,
)


def _temporal_pair() -> tuple[np.ndarray, bytes]:
    """(decoded generation 1, delta blob of generation 2)."""
    engine = TemporalEngine(TemporalConfig(error_bound=1e-3, keyframe_every=8))
    base = golden_array()
    engine.encode("a", base, 1)
    engine.commit(1)
    second = engine.encode("a", base + np.sin(base) * 0.9, 2)
    assert not second.is_keyframe, second.reason
    return engine.committed_recon("a"), second.blob


def _filtered_temporal_pair(index_scale: float) -> tuple[np.ndarray, bytes, np.ndarray]:
    """(decoded generation 1, delta blob of generation 2, the generation 2
    the encoder staged) for a change that is smooth down axis 0 and jumps
    from column to column, ``index_scale`` quantization steps high."""
    eb = 1e-3
    engine = TemporalEngine(TemporalConfig(error_bound=eb, keyframe_every=8))
    engine.encode("a", rough_array(), 1)
    engine.commit(1)
    base = engine.committed_recon("a")
    rows, cols = np.arange(24)[:, None], np.arange(16)[None, :]
    steps = np.rint(index_scale * (np.sin(rows / 5.0) + ((cols * cols * 7) % 17 - 8) / 8.0))
    second = engine.encode("a", base + steps * (2 * eb), 2)
    assert not second.is_keyframe, second.reason
    engine.commit(2)
    return base, second.blob, engine.committed_recon("a")


#: case -> (residual height in quantization steps, index dtype it needs)
FILTERED_CASES = {
    "temporal_delta_filtered_i8": (60.0, "|i1"),
    "temporal_delta_filtered_i16": (9000.0, "<i2"),
}


#: case -> (encode with today's writer, decode)
CASES = {
    "pipeline_u8": (
        lambda: WaveletCompressor(GOLDEN_CONFIG).compress(golden_array()),
        WaveletCompressor.decompress,
    ),
    "pipeline_u16": (
        lambda: WaveletCompressor(WIDE_CONFIG).compress(rough_array()),
        WaveletCompressor.decompress,
    ),
    "chunked": (
        lambda: chunked_compress(rough_array(), CHUNK_CONFIG, chunk_rows=8),
        chunked_decompress,
    ),
    "temporal_delta": (
        lambda: _temporal_pair()[1],
        lambda blob: decode_delta(blob, _temporal_pair()[0]),
    ),
    "lossless_f4": (
        lambda: serialize_array_lossless(rough_array().astype(np.float32), "zlib-mt"),
        deserialize_array,
    ),
}

# -- version 1: frozen, decode-only ------------------------------------------------

# base64(zlib.compress(blob)) of the pipeline_u8 case
GOLDEN_BLOB_B64 = (
    "eNoBVwKo/VJQWjEEemxpYnicCwoId2ZkUGRkYKhWSiwoyMlMTYnPSS1LzSlWslIw0lFQSs"
    "7PS8tMB3KqlZISk7NT81KAbKWqnMwkJaAsVAiiBShhBhRLLSrKL4pPyi8FK80rzckBCqKY"
    "mReflJkH4hiC1BeWJuaVZFalFoEMLijKL8gvTk0BGV5ckJmdGl+QWFSSWZKZD9ZgARQuTw"
    "QalVoCUp2RmFikVAsUSympLEgFiaTl5CeWmJmAtGfmpaRWxMNlSjPzSiyUwLYn56empWUm"
    "Z6bmlYAMNbEAi8LcAXK1MciZxRmJYK3RQFdaxNayMDAwsCVlluQmFrAxQMBTByULe/t6f3"
    "5+DqCjihLTU4sboFJ5NUGrsxepJzidfLcfKsTQsOKLl9WZJ/u3/q+RzvnwYD/Duq/3ynov"
    "72f4o8J5M+n4foYKd93i9Yvsry79t3NfzCn7hL08zLquV+wdYo7+8Pt6z753efjvdW1P7A"
    "/o7LPgXffCnkH1nMcb1vf2DYW3VDxNP9knmM5IOG341d6Bt+zVS+af9uzAIMhMTi1WgNov"
    "5Ru/j5mVhY2Di4+bhZmJiZ+Dl4uLk50TKMXMw8XOwsLOxcNelFhelpgD98f8CMHcD3Yz7f"
    "/LRzqst4z26mqKdFgzd2dxl0Ckw4asM0d6P4Y7+ETodXolCjksWGwvvfAMzwGPex/D3CcL"
    "OpjwsAue5pR1OPDfvXLDCa4DElxpU2qypQ7cEH1SEVGrcICh59SsK2XyB2YYbYlSfSHvcE"
    "yIJTMwVsHhwEvVrH2dkg4fqvw04gw4HAD5vud4xuYl8Q=="
)

# A blob written before the header gained the 'wavelet' key; it must
# decode forever (the decoder defaults missing header keys).
LEGACY_BLOB_B64 = (
    "eNoBSQK2/VJQWjEEemxpYnicCwoId2Zk4GNkYKhWSiwoyMlMTYnPSS1LzSlWslIw0lFQSs"
    "7PS8tMB3KqlZISk7NT81KAbKWqnMwkJaAsVAiiBShhBhRLLSrKL4pPyi8FK80rzckBCqKY"
    "mReflJkH4hiC1BeWJuaVZFalFoEMLijKL8gvTk0BGV5ckJmdGl+QWFSSWZKZD9ZgUQsUTy"
    "mpLEgFKU7LyU8sMTMBqc3MS0mtiIfLlGbmlVgoga1Kzk9NS8tMzkzNKwGZYGIBFoVZCnKi"
    "MchNxRmJYK3RQCdZxNayMDAwsCVlluQmFrAxQMBTByULe/t6f35+jsSy1KLE9NTiBqhUXk"
    "3Q6uxF6glOJ9/thwoxNKz44mV15sn+rf9rpHM+PNjPsO7rvbLey/sZ/qhw3kw6vp+hwl23"
    "eP0i+6tL/+3cF3PKPmEvD7Ou6xV7h5ijP/y+3rPvXR7+e13bE/sDOvsseNe9sGdQPefxhv"
    "W9fUPhLRVP00/2CaYzEk4bfrV34C179ZL5pz07MAgyk1OLFaD2S/nG72NmZWHj4OLjZmFm"
    "YuLn4OXi4mTnBEox83Cxs7Cwc/GwFyWWlyXmwP0xP0Iw94PdTPv/8pEO6y2jvbqaIh3WzN"
    "1Z3CUQ6bAh68yR3o/hDj4Rep1eiUIOCxbbSy88w3PA497HMPfJgg4mPOyCpzllHQ78d6/c"
    "cILrgARX2pSabKkDN0SfVETUKhxg6Dk160qZ/IEZRluiVF/IOxwTYskMjFVwOPBSNWtfp6"
    "TDhyo/jTgDDgcAoITho9yrGbA="
)


def golden_v1_blob(b64: str) -> bytes:
    return _zlib.decompress(base64.b64decode(b64))


# base64(blob) of the other cases, written at the last version-1 commit
V1_BLOBS_B64 = {
    "pipeline_u16": (
        "UlBaMQRnemlwH4sIAAAAAAAAA91XeTTV695/fsh4lDFTtDNlE4mdOfsxk7q5DXQk2rKx4x"
        "g3OipD5EgqcStJJW1EwnXllE7tJxIKmVMaqAyN5pJp35/O9fO+Zy+r9693vev9WHstn+E7"
        "PM/+Y69nq5OLFQbUMQAOKNOCgvwZdC8Pf3o43T9U2YS0bg1JeW9ggDfDBycHlD1pe/3oAV"
        "74/8o+kYwgZdz9j/RnCW4Y4Bo9JCQwxMMzMOx7VFdHD9f+W8sAD09GwHeiZ4TT4DBaAJMR"
        "SQ+Za/y9jO411zs0iOFH9wiihTAZTEbg9wIDCq5H0PBedOZc2pdGC1E+hGtezF+D6HOKt3"
        "8gjWlAmatn4I32exBOGCOAuc5A+fv8vYF0b2/GXgY9gDnXVt+I8l2e32Rubz3K+rkdfGnf"
        "q3fp4Yl1BrsP8QEA+D0ZzF9oQbrgT7i/LnoGOGAWsIE7uAdGwSTO5v5mwK2VHDbnxRvOOw"
        "6HU1TM+cCJ5sxwXkU/4QjiZwih+dBDoeh/urh0/r3/NcbqeEdGYBHw2gecMbFZ3F/x7Flv"
        "a4UGslHNCd3F0iByzNxrF6ycF7gu2a1jrcwCn8erfcvVhX9fjcS7Es26LqxedM48nEfkhm"
        "Vfq3Pl1OotWQLJ6khXWPbeZ2du/38b8bS6tTeVVH+4R02Ru2dQqApXTuHotX85i6ugrSrH"
        "C49OKhM+qWfLdMsFZfTzYWkrauSCrsu8UF25RZmrz5ui6sC0llVcenKWCHV1BLdOOf1Hyw"
        "Zebv0SEHlcV0hCbT6NfL+lktDsad+0KGfSoueL+nq9MKZ8JZefZ+JQ/nlCidBlH7qrR25T"
        "4sr9CCx6oXCHxwrUduoFtNq5gqgPbhYccMtVQLXLw2G8vwJS3eOm22qgQPh3VcOE8vPl0f"
        "7ordU7A+SRlJJrI8lQnmv+4ePyOppOckg9/EHbMxE5RDF18WxrkkWCToqepDBZIi+R03f5"
        "/hcZlKrjWXIoVeaH5zhYfKPd1305ytrEtGmfkkbCxuSOU73SaNzB4/loijRX/YOepDSLq1"
        "KEnke9dW/YWIorNw9BPi/fOBNJwv8t+fKJ27kSBD+oeOcwS0MClSuqTzH7xZGbQ1podr44"
        "2s/3mFaiI44eXfEwK+cTR7r1ssmZJWJEnd2n4nSPFWLI/aJXOqV32aLzma8wQdleUcKPtn"
        "94g1PxE8Gt+x1NdrBECJ61vHT2jocwyoguo7jqC6MYlYe7wk4JoWm7XXFV0kJccz6NRkQp"
        "7hdAqpaFXmFZ/IT/QSX03BDPAm85dmhU7w4fWjrzzHyJKh+hd4vxb97+imfR/Qu0gmWrDD"
        "DCL9rJrHNZDVBTX7Y85cMsW7M7BW2ynGXP+5u2rnUytp5i/7XPAH+4S5LzBKGX3CgvfmTz"
        "hT2dE1a3KnWcLfb6240M/jGuutzzMvT+k0OEft/5yeSQwmf2QEdhiU31ezb6avf6hPt7wr"
        "9a8rFWq/EtW+wXR4ciyTfsxJSN/qED3WyS8gfJsuTnRI4U8itrxK+N4GI5CbX0Y3UL84Me"
        "lck0sNhA4YFBYmcKFaSb94lTi6kkgdrLlmWIOh/zTfuDXirSRCVZ1ZwWlmqniqlU9H1e9Z"
        "QKoih3Rq6+Wsgpb2l8v+QtlSIZxbcsrJcqxug6IKwzQPizGb4ZNp8+UCcic2kDmZ+oJO++"
        "Lz0xQ9TaWNUJ+89D1E01ffcrnw9TNzWd3tEQNUpNaNfZ4NUwRtTPoxuLk6gv+0oV25Z/dv"
        "f0BOHH91D4+lSnqLpLEgI0i6a46j4W//Okbsssl74Y+toH3NJaeCBraeimpaa8cHtj9uyx"
        "bF64WN7ep3/2/MgSqJullRe7hx/a0iiBl40FiPzRI/aHY0UFIY/hmNL5bEFoKFfg2CUoBI"
        "fBZdcLl4QgkJ9YU0oWhi02+0mx54WJuolEizynAhGuuXek37QZ2ovCq4O2ag5fRbn82EgL"
        "Ey/mMnhy88F+OLkMyiRPm31zEiNyF29LXrnIFoNl5JmI94LiMD/5D3LNQXHCT6+qf6E2sc"
        "Crwicc3sZLEFxKkF138LkEdDjjV1xhJglTXD9ZSnlKEv7LuuD+4sEF/lcsf8pq3MIrTfjb"
        "E99oGhdIw06X+Pf0celF656juj2ln5YTvvV5Y9foDJlF84OuqhlR12UX9edRa8MKKxqRI3"
        "L/sE0SdtwhT/CSMpLf+y/yMMruEtMSKhA6cvevJjct8HnwhmZr0i+tIHTPz86J3VMroP7w"
        "lQzxQMUf7vNXZNl2HZfRW0nUmX3ld2tgLfB5tGzSrRI2IxF6rn9HaXrSf+H6Df+sukeCYX"
        "fVWGPDJK56vk6ZHrFdqwi9gCNQlJ+7wG9UzirJfl4Fd7pQjSeXKBO6pvfAR5nNC/z/Omaf"
        "dL6c1lCD85zTl70xM2yBa/Yo+xaVL/DwK/dt2iXVYUFFWMfvGuqEbrJDyPxvAepwuc6F/M"
        "4zC/o8lubHHij8qA79H1ODyhRXE/5NBYXIzq2rufLzYBb8zDjYvOArVfYFJMpqEHxjQ8nd"
        "5YEacOxO75rJqAX9R+CROFwztZsMNaSqhB5FkhetG1mpp7kaaP6P+/5/gXmY+Ho3JR2ocb"
        "ssd8ZKBw57yQbXMnQgX6ah3USmDhTAX3yMvfTQ99ifeWGQf9IVuIFT4CNwwHwwSSwSHAQn"
        "wE78jXYKBGIBGAtrAU4gByzBcjA5EAz2Aoh9ACpYAl59C+zFDLE8TAP7FbPAHoNYbBZ/3d"
        "lixpgv5gvkMT/sOXgKxMDfwFmQDK6BEaCGSWH1IAqY4X0eAW3MDPsGboNi4AECgT5IAkew"
        "PfgrMQbLBnFAC+iCi/gnFazGBsEd0Ad4sC+gEpwB1/HteLBgIAoiMHlgCaIBFTSBfZgtaA"
        "aSWBKoAGPgKn4KAew8eACKwGFggdGxXGALhsEnIIufahLvKwhugjbwGFe0sSB8dg3gxZQw"
        "EawdZIJz+J0w8I2/4bPFsWuAD3iBIdALXgFrbATEABomhHnjm5/Be2jidxQLIjFhTATkYh"
        "RQB/oBHT/FfXwnDkgAYZgQPmEIHAGOWAp+SnusHASAdlCL7yeK1YBw4AgwrAuUgRugHnSC"
        "VnyTGVw1xt/KTPyWxb7PrQKl+I0NggbgiyeX4yeRx8+dht/OLvw+aVgynonDt12L2QEDYA"
        "O8gQswBLpYOGCBYEwcmGNsIBBCiwin+Yfu5Pvz27/kK3LZKWHzyw1lL6gtCajxXbkZbH6w"
        "+6R5sz3MGW89KxrvAF2vdaVWfjOB2fw3j7xK0kZb88bdy1vs0beUg3BfpAMy+LJkS9wlNQ"
        "SuWCTxkdqoXy1N4fMrxvD0Pa+NxRoQ7td5l/36wgbodEXHLkfVAA6vqY4h/2SNrh9KAAJP"
        "N6CK1A9KqeVqKL59jN3ib4u2stsHpL/poT02Ha3iFuJIUC8e4yebw9w+O6k9lVbQKO0yqP"
        "7dCN4vLOg8JUWGlZlvxxUrDFGFRdLL+Fo99AvGf3YkjYpKJfQMW1rNEA94IuvUYoJsGxpj"
        "Ir2kkb5ED6fH2wz6XrOTcmFZQ9Z65wlyqyl8oucFpNPFYd1pq4yezUbQU74m0Pxfpui1W0"
        "66zklduD+CPRptroie8VUMxE2ao6muZsd/dFsi1TefKDFbjVBMf87Ss86z1ERGVt2BahPI"
        "Jn0N3RVtCfsGarrzjU3xX16Fm79tWI/GdkgZj3aYoLbmA6LyvaYoYaffqTZrQ1TWfJgeka"
        "+JYqRMx/2OUKDXOt+p3mE1lLnPoX843QJ16+1IMzkKEc8DwfPfQvUQq5kcrt4rgbaZq7+M"
        "UTKEWZV+JQLadtD/VA9n81FD1HB344xI6HpkznCfOKttDDcN3vRZ6WIE8xV3UV65k1HA1q"
        "GaX32oiCexRabgpDUyOa6ZEBu8DqVTsi0c5aSRRIfYrRNVlvCBYs31sTh9dOXW6R6nNn3k"
        "3DxeeonPEt584t51zm89NE5cn938kAqHvpyc9ksho7Ku9w8GD1mgPfZ5JqDHBtVWC3y9Pm"
        "OI9jSZTNUFGcCmKeMpF4VuaojOb2OWplrwgrYzr1OrEaRTng9G5a+HyWc2HtFmjlAjnbZ1"
        "VK0zQg1qom23kyxRgszhcctpM+QrEHC01GuM/UeGnHbrJXOYUT05pbbDBp4WPhBxbKMJHN"
        "BRObbmrgzq63r62G6DOUqV95dTf2mBtGs+xF19QUW9VwRTju62QpU2zDeTEmqo8aTyvT5b"
        "Hdh/9EFhwQUH6JLXtElqqRG8mGrwkjyhBqvezT6VWyMJv/x9+4ikpgPynhT21lipDbdx9p"
        "/rjTBDjqIfn0m1WKI3nbf6XdVlEbuhQDaesg7ez1S9dq7fGgaYvjzGmjGCZAlA9hs1hV2m"
        "x5IlnlDQTh1F98u3tNB6h5vTvqkqMNxw2Qsfkir86a28aPh9KqzgvTqWm2kK7wWXUsdKtC"
        "DfpKPe9kOmUCIvxKfiuC58KPNk1ClPEzm932YnUaeJznU4fxT8pA9LMtccCX6ki7L4Nv5s"
        "basJGQJnHl28o48k6NEk+s61SF0jp6VG1hAKtOcMztavQfuq6q85yGjDx5z0oOBgbRTJn8"
        "sv5KaPeuDoB7quMVKZbpcwkFWFP1sMnkgu1YL1v6/V7dU2QEMpKlLxeB+n81nB71RU4NPj"
        "K0fVNQ1goVb02u4xLfhvxFID8DYVAAA="
    ),
    "chunked": (
        "UlBDSwEAAwAAAAAAAAAYAAAAAAAAAJwDAAAAAAAAUlBaMQdnemlwLW10H4sIAAAAAAAAAw"
        "sKCHdmZFBjZGCoVkosKMjJTE2Jz0ktS80pVrJSMNRRUErOz0vLTAdyqpWSEpOzU/NSgGyl"
        "9KrMAt3cEiWgAqgoRBdQzgwollpUlF8Un5RfCladV5qTAxREMTYvPikzD8wBqS8sTcwrya"
        "xKLQKZXVCUX5BfnJoCMry4IDM7Nb4gsagksyQzH6zBAihcngg0KrUEpDojMbFIqRYollJS"
        "WZAKEknLyU8sMTMBac/MS0mtiIfLlGbmlVgogW1Pzk9NS8tMzkzNKwG7wsgCLAxzCMjZFi"
        "YgB2QkgvVGA+UNzWJrWRgYGNiSMktyEwsEGCBAPiDgNMN/INzPEG//f///v4///+QAOrAo"
        "MT21uAGqyF7Iquo7U9esRlH1A/MactkzC5QPPL179fsjDYUDUj7x8S1LJQ5cXGN/tbRa4E"
        "CoF8+R/5NZDpyNnbHwpOOj/dbSti/Sij7YL5gw94LCAg4H9/t6YbZ/hBzWncxl9FGWcgg/"
        "qF+QYanoEHDo8zXHp6oOujcWz9WVVHcwsK7zmfNby+F6bRXDwRX6DuzA4MhMTi0OgbrJbO"
        "GCaGZmVg5uHk4WFhYmDlZeXgZ+diZWTn4GZmZuDi5+PlZGVi4ONg5ODjZWIMnMwMvAxMLE"
        "zsvEzsnCxsHKz8LJysbGws3DysTBwcXLwcjAxs7Ox8HFXpRYXpaYU5zACLHnYPbNQwFtvv"
        "dst9y1v9R24NzLbTYOF4/F9ttd9HBY+vXydN4WT4eo1bcnHfpp5bCIbUfr/S7dA0HLv8Zt"
        "u+Rx4OeEGoesKs8DZt9Y/Zvnqx5gWOzYxaJwxf67k7XDncWWDlMPpnit13BwqNB7uejRXF"
        "uHgMV67ktVzBw+6hxt0ORxObC2to2B/abtgZarX/ZfynE7ELT/6gvRn0YHElyvXRZ0FDzA"
        "YdTCyKZp57DsmbtIwiFnB4vJCxmObrdwOLJm1Y2JIpoOh+Y8+Sq7y/zALseuey0njA7kMr"
        "JN/zTZ/sAmISPzS5dtDjAxXJcIuGR1wO3suYaqFNEDxkIP/z9Ms3HIWO0uEr7ExWGJadgP"
        "zcvWDteNUhhEZwg6nJzqPOuhr4VDktTxfLvN1gd4nkjxlh2xd9jFvOLLsjnWDiy/vI1Caq"
        "0dTolf/xywXOtAwKtgd6GTWgdmXgt7w/HW2GHDHJ3WwtMGBzLZp52et9f4gFBqvUJqhP4B"
        "AIZqUJTIAwAA4wMAAAAAAABSUFoxB2d6aXAtbXQfiwgAAAAAAAADCwoId2ZkUGNkYKhWSi"
        "woyMlMTYnPSS1LzSlWslIw1FFQSs7PS8tMB3KqlZISk7NT81KAbKX0qswC3dwSJaACqChE"
        "F1DODCiWWlSUXxSflF8KVp1XmpMDFEQxNi8+KTMPzAGpLyxNzCvJrEotApldUJRfkF+cmg"
        "IyvLggMzs1viCxqCSzJDMfrMECKFyeCDQqtQSkOiMxsUipFiiWUlJZkAoSScvJTywxMwFp"
        "z8xLSa2Ih8uUZuaVWCiBbU/OT01Ly0zOTM0rAbvCyAIsDHMIyNnmpiAHZCSC9UYD5Q3NYm"
        "tZGBgY2JIyS3ITCwQYIMDa/uY2hkaGzwy/GP7+/1+/fn382+8cQAcWJaanFjdAFe25s5jr"
        "+q7qeTlKsgesV62ccXGb+AHmqZo/BXwFDhzqNDpowMZ+4FPQ9EwL5w/7by8XurdP7Yy9mM"
        "w63fNnv9uv3smw3/UwuwO76JQPGXMFHXJnrX4tKSnusPNy0PrGtzIOjw7E+Kxequjg/KLq"
        "HOsLFYfHl4yPXKpXd9AQOcx5ukrTYfG8c3OSefUc2IHBkZmcWuwNddPkyPh/TCw8XPxcvN"
        "ysfBys3Fy8jJy8bGwMjEysHJwcbMzMDIws7FycLIzs7Gzc7Ew8HIyszPwsXPxMvBz8rOyM"
        "HKxsHEy8PFzsTNzM3EBFRYnlZYk5xSsYIcZXSjyxqijf/7neTvbALZZdL5p/2R34ffui95"
        "QHTgdUHr81aQiyONDwfCnf9LB/9h2ZC05WH7Vy2K/wvTi63snh2YvjD1ZaWju0TMp+Neel"
        "5oE6d+kd7bamB76Eilh+vmZ14MrFal6pp9YH2iKyJ15xMT+w5WJTavlKrQMNItZfs1tNHF"
        "IMM34//ah6YE6W5/OPMxwPPDAKnWzV6XCA6RjH7J/FRgeWXNQsU3sqdCDYTu1eg5y5w4JD"
        "2RvYdd0dciY+/O/baX7g7D6vv9zFpgfsMuN+TNe1dPB5vyNdPtzCYaVstMn9OM0DeUEfjl"
        "em2x9g6rgkvqrf5YBVr1ZbY6HhgRkmixy9JUUPCF0T2Nl32MnhmOzxtV+ajQ8s3jn1YcAV"
        "4wNhF79ums/i5LDjetztmdmmDpYdposunrJ3+PCt/0/2BM0DW26/Ova+1vFAgsdyK4aHrg"
        "dOHGX/vvav+YGEC1a/TxaYOexZxrNDcL/6AWaPvGlWrpoH1DSWXjouYe7AfnXp+39ndA6c"
        "/z+joLBQ90AV2zI2zhjjAyXLVs91DtM4EKTcu6bzl9KBhw6fX6caWB5wVVlaHL1E44CBWU"
        "2VJr/yAQBmmNd/BwQAAKsDAAAAAAAAUlBaMQdnemlwLW10H4sIAAAAAAAAAwsKCHdmZFBj"
        "ZGCoVkosKMjJTE2Jz0ktS80pVrJSMNRRUErOz0vLTAdyqpWSEpOzU/NSgGyl9KrMAt3cEi"
        "WgAqgoRBdQzgwollpUlF8Un5RfCladV5qTAxREMTYvPikzD8wBqS8sTcwryaxKLQKZXVCU"
        "X5BfnJoCMry4IDM7Nb4gsagksyQzH6zBAihcngg0KrUEpDojMbFIqRYollJSWZAKEknLyU"
        "8sMTMBac/MS0mtiIfLlGbmlVgogW1Pzk9NS8tMzkzNKwG7wsgCLAxzCMjZFkYgB2QkgvVG"
        "A+UNzWJrWRgYGNiSMktyEwsEGCBA5tWDLIb/QPiVwb7+/4//0/9f/80BdGBRYnpqcQNUUW"
        "lb2uyZsqs/776udOCkwbtJul4KB2Ks1LzWyUkduD+Vg+3PSpEDFXuOBZtkChwQPfrdeksQ"
        "64Hfb/8WZuZ83B9fefrwR5Vr9pW3N3xUNvppX3G8bsqZMnaHVwX1ga98BBxuC/x+0fVJxG"
        "Gqh2/fWw4Zhz0xzLsDkxUcVsadPfxijrIDe/WrKZ62ag7swODITE4tDoK6yWXGRiVWFjZO"
        "Hm52FgYmdh5eLnY2JmYGFiYuVhYGPj4GDnYubnZmRi4ONjZ2DiCHmYGJmZODnY2dk52JjZ"
        "OFlZWPiYWfhYOFh4eRgZGJiYGHmZWfl529KLG8LDGnuIARYktk/KJ5F35b/g6XfmBfpNf+"
        "xcla22GubhhzwGULh1STO+/rVpo69EzzatUt+WRfFRB87bChxYGzqrxXdnc5HWgTb/rq9M"
        "fmQAZ7XuemlC/798yS1L08385h1tFfv1VDXR2mclWXd3tZObzQU+7W2Sd+4Nntm+fdbe0O"
        "TJLKkVS753hA9/jr5hV37Q88XcwxoTPW+cAh15LHv4RUD5zrVzr4zE3P4XnnsTWr5no6hC"
        "+/4CPCZ+Ewb5LZPc0fqg6HX/67Kakj7PAtMOSTsJbngU/yRlrqDFoOab+40jTkdR2C/1fM"
        "fFpuc8Cb980tkUtOBx7f2Pk8Sk3iwP6zqyRaTAwdjsxRWT3zuYtDnvW97iV/LRw0hRg0sz"
        "9bO9y27u4Rum5ygEmo6fjvWE2HCD3ZuIU7tQ9EOr7v69mk7eBlPCNW4JXmgTPb9Q2e6pod"
        "YNJXmMK0Xv1A2CfJjxKP1A58mKAs0iJh7rAr/fGfT2FqB272yn9W0zJzWKNdr//gi7aD4O"
        "0Om9tz1Q8AAAYwP1HWAwAA"
    ),
    "temporal_delta": (
        "UlBaMQR6bGlieJxFjjFLxEAQhWdAECzEToQrwtZR4iFyiKYRK0H0irMIkttkV265mA27ud"
        "ND/AN2ai+cYmOtWIl4pbW/w0602nUTBaea9+Z7j2nv7m8iPAHAKUmo5rEueUHWvGXfI2mP"
        "ijwWOeMnfw4rRwV3O1k/bBGnuVJSxYkc5My5wVIQVFSdiP9Z0azYvqghUvKjQiqaLTKelb"
        "S6ZPI4oTmLMz7kmXZM05mF4kykpVRVxomhkANd0bpH695o1fdaB2foXp921SLlugu/8zG+"
        "mWnYW+wbhAm+wZddgQ4qfDAvNsLQdHEOts0CRHiBHo7sjpnHNtybV3w0V/YZP2EKGuDjNc"
        "7aDXuHe+YbziE073YLLzHEiQ3ND83maAc="
    ),
    "lossless_f4": (
        "UlBaMQd6bGliLW10UlBaTQEBAAAAGAYAAAAAAAB4nB2RfzjVhx7HjyGTLrGGstOk89SMOk"
        "X5Td/PxzqeRH4tv45w8ivlxhyFJJ20rlh0bchVaO326OeKOnto8f18xDWl0oaig5Se24/V"
        "FnnWnTx32/u/9/N6P69/3qHBEb56Em+JRJJnl5iVm5Fk52Fr55W8ys7R1m5b6vbEP2taul"
        "qdlqRWL1NlZqpy/yTqLaq/lkqnVY62K1025ev9ITBIVGWpJLMkf+Xb4YOFEkkXuA1K0bQ7"
        "CHPuZOJ/x/fiM5Nd6KhVYtQZe1zocwd+qtCHDxqkpNLepnvbbDjslCfvNVPwxBl3dqq04p"
        "/PddBwpB55HJdB88IxuCIsQ/mzUJxZFYkvOl3w78d18EBnLSjW3KBlcQpWj+1mhzk5fPpz"
        "V56fX0feMUNCkm03jHz/Ct73bYcLKzXwmyILXrh1w92LUoyrk+NA0QgoB9pETF3MG5JVvP"
        "qBC9dVf0ejzivIy62aPMqn6V1PLa11Xg//dFmLi67E4ZeO+mjp/SnE/H4eDg9IsSj0Hqgd"
        "CynlQ08OIFPW7M+gp0nDpJ2J4RX3l7OXpZXAk+fg+Ty5cP3ad8JAuw9GV+Vg9LpeSHWQgo"
        "3WGC/V/QDnVvdT3GELTp2W0fXZM/TNSg0HqmaIYuWiOHuMYk5H0NcNUqwJH4ZVicHwYmoz"
        "VicgzmkVhS7Zr7Ch5Sx8m2HI9w+k0o+DGhLf5PNcj5fk878zBMP+fHG1mxC96LFw/1CPaF"
        "QagPWVjyAeR6HYJgep0xRuKwchWX83zGS/JaejA2vG5gHfi1/Aiv3d5LwhlU3yy9oq4yep"
        "Qz4L5PFNcK3cFXSWGeioy4DpG9vR0XonFIf0womKZ8LrqRryS2Kx6W0UN7zdTsWLNbx1QE"
        "b+7sDKvFkw6aWhdpkeHsv8DOK/FND/6q/wMN8d/3P1EvR81Q8p/ShmShe1je425ML7DZR+"
        "fiNH3bxMIRaR/KQpQjSJM+PG2EHQbtKjxW1BmDpWBI3SKJSEvYZTZY/hYcUT+KU3nITKaB"
        "jeL/Dx5UCFOcGscJ3PdUbNFHfSjV9fCoHGuDKqO3ETZilMcYdrERhOaTDSrgpGXAxxm7EB"
        "vjKvp+hEe/i4Tkf5xb6ck57wx0ebWedrxfX2XuJPjca8YGxCiNk6Bw+NHBE+GnPCI5CAnj"
        "VhUK4xQ0ZLtK4rp1thztS8oLDV0nsdS0YC+GprGo2lvc+xfd48u22PYK9XBfNajokLbS7D"
        "HVkOen9igyVNAZCsskCldAkaRl0TLxw24Ea/dZSyxI0CVvhx8ke7uOHsj1TbsNQHT0aR7u"
        "AZCl8cAMe1oZiZEIB1X2jB7Hk2tOqbYmOwAwYeWw+eP7wkHHXlmpkpmkzOoqM5zaR7tYIT"
        "jT/hiaff01LPfYA3HDD1oCNW011Av51gHfovGPR4Bz09PsD66QGY3WMiVheZ8sajW/gffV"
        "m8scad/y1eprvPFrblD4VAf0QJ1MflgeZREFSGBYM6/wAsGbsM4TU6aEodhzD7NpAGhsM8"
        "j7K2gokD9DB/ilbnLOJjrXK2L5DxL7feYbOHX9PJ0m7x9+FRwbnvC8jWtcLfzLpgTW8DOF"
        "cFQbSloXBl0IaWhn1DE+pHtG9IjwOLp+mW/BbFtmhojy5XLCl4D1qdT8HZsZdQxu9iR7A+"
        "ltzsgbkpkRCQZSnKr9fSExsLrtrpx1MFyVzRu4UHh9bzjh5zrr1aSIdEEnJLh4BPy7F2fw"
        "j2zAnEkn0yXOvfCdq7/UKTjQFNKD4nI+8y8vksjU4o19JIaBYZuHfSUJcF3877mDWhxuxu"
        "tIDekxE0Bobgp+1ZeELmg1eUjVCeHisElU2u+WquE5y8JMD4aRN6KzhwS9ZeTn8ewXLJOb"
        "r4Yq6Q4f6k9Y15EGULPqLUyghRm4ubfYNwvkUFKNOHhaKKNogM6oM7jx1JlufHT4+u5F1u"
        "pRQb3kF9EMJqdynbPDCFnUdaoHr34BoxQQU3S5MwsDUSt1hvhc6UCtCvtUVz2zhhV54Vl7"
        "4pI/2zMfRzSTLPdPjzRkMDKsjupphrv5H5OENXyDhsKmgXlrso8PwFJe5o9YTXe8yweake"
        "Lle00MHzB8T/A7px+xk="
    ),
}

# -- version 2: written by the current encoder ---------------------------------------

# base64(blob); regenerate with test_generate_reference when the format
# legitimately changes (and bump FORMAT_VERSION with it)
V2_BLOBS_B64 = {
    "pipeline_u8": (
        "UlBaMQR6bGlieJwLCgh3ZmLwYmRgqFZKLCjIyUxNic9JLUvNKVayUjDSUVBKzs9Ly0wHcq"
        "qVkhKTs1PzUoBspaqczCQloCxUCKIFKGEGFEstKsovik/KLwUrzSvNyQEKopiZF5+UmQfi"
        "GILUF5Ym5pVkVqUWgQwuKMovyC9OTQEZXlyQmZ0aX5BYVJJZkpkP1mABFC5PBBqVWgJSnZ"
        "GYWKRUCxRLKaksSAWJpOXkJ5aYmYC0Z+alpFbEw2VKM/NKLJTAtifnp6alZSZnpuaVgAw1"
        "sQCLwtwBcrUxyJkFOYl5qcVgrwOtLEpMT4U5oSixvCwR7B0LkO3FGYlgO6KB3rGIrWVhYG"
        "BgS8osyU0sYGOAgKcOShb29vX+/PwcMKMaoFJ9G9f0ZTM0bAUyryY49B5gaEhwWMSw4v+6"
        "PxVL98Ys11EtNOVVZ/hS81XF/R/P0fB9527NKEtg8JK+x6m7k/nHbwsPlYRXTgxWOWU3i/"
        "fp+q3jfeN5+uVJhjMfepPWx7h+bVvHamrI/I7hyYPLxxedunLvyYv3n77+3M+wHwjs4YAd"
        "GFaZyanFClA3SfnG72NmZWHj4OLjZmFmYuLn4OXi4mTnBEox83Cxs7Cwc/GwQwMB5g+bPV"
        "4uH9av2eCzwMPkgMQNhhnHDnyws5ybFbH4Hs9/LtEeI6GXVTOjd57Rs//I7p725NQWFlU/"
        "e6/iI53SYYKVUypmRWVmafzv6ur1Wuh+ekNNxBXVwH1x8k0CHxPPTOY8kV1b9iK20yAyMj"
        "JciEdQlktKQV5eQZLDAQQOABEQgJgA/uH08A=="
    ),
    "pipeline_u16": (
        "UlBaMQRnemlwH4sIAAAAAAAA/3yTf2xTVRTHP8ypC4lLRZw/JtB008A0ZD/qmNOoEbc5Ux"
        "IykSHK6mv7uj0pbWlfyxywCkEdcUb8RQgabAKbwB9jf4BRCTDxB1NRcQFB/LENkoEBNAMN"
        "xLA9z311SyTE27x77/mec77ne+69rZtbPzuLRRNguUuLRkOGHvCG9KQeirsqnSX3OF3+SD"
        "hoNIqx3OXT/Iv1cED2rsYWI+oS779QJkUc5YLpsVgk5vVFEnZo8cxSwf5DGfb6jLBtlFaI"
        "uTShhU2jRY8pYjtNDyjueNRYrHujWsw0TCNiJ5S7BV+mCZduqugmTYu5VgoWMJ+P6goJhi"
        "KaWe5W+YYQNXvHPQkjbJaUu+z6/ogeDBp+Qw+biraswm3DY0qU7lL3vYJFQ1pYj9vdS9WY"
        "1mgbFRl2w29bqr+Ytiyp2Q1WKDnxJs0u+nSpEJeUL1qZDVznM8wlWrSYzGg40XUci1H20c"
        "AnXOBvsdRvhI+mWfusX05av1mW1bXDOmOlrBGrP3XUyhkT8fANGZLPz/adPyXrNfLdUYWJ"
        "sPffqDzz4c6xUuNjjZoOQH4dzqdU7EloBze8d3hUXK3wPrdmYrccZmlvIXubJ8Pqu9w5TH"
        "pDwSvSE/+CLyQOcniZFR880/x1MTUNYpukeJT0xhcuw7lCztCXy4Dg2+k6VIQHTtN92QGd"
        "fHa6h62ONidOHIrVSZNTNk1uB6OXnL0ez0sw4GCNSDxrqxnaMk/mx4qrWZs1a5g+LsGerb"
        "DqtVvYtHMbG/iUybXr+FWi8ph3TJafRQv8obJ7eYvuVnrUQfnKMv2leQDh6aQzAdmicdcC"
        "iq48MHuMyqUUkdxOZR7khvjQbnUqj/9pu7Omy3T+qpnj48Hpw9knVAPyHS+UojPguZ/IJB"
        "6ceGW4pqYuWFvA4GqppfZpeFvQRjVdhEq+ysTqr/N93rMUpqbCq8n759IxU8E7PPfVwiAP"
        "obprZ8qU2uzNBzm3Sex+0XGKvFRBDVx4hAJeGbGv4W4WDA1QJ0+VXR0i9x3m/3CR7iXrXM"
        "ToIJq/4XrenF3Qiusmg40twVUHDh2BCU8weK0UtNUcyf1WiUxrvDjrNm6vog1uljtomdPO"
        "7hntcktJctYv5EuJ+pG2ell6pA4sVNlVVLOzRv4PxPl9ONNfterWQ4iyvXBMrmJ/PcGrHv"
        "JRhqThzR/zpJzAtu/IRz29/Xyzx3ZPkofMtP+/p8TuwLv/AAAA//8EwQlMFQQAANDnZh64"
        "VWbJz6aj5jHRiXOUw6EgjhSxdC2lgDQZbDSdxwAtDwp1RpZWYxai1MCfjiRAAiqTShEFD9"
        "w8yEm2zPwwMue1hhf1Xh8sw8Wv7JPO0EJ4moQAAEArLGTfVnOfUkozgzjIoLZsfEOShUDl"
        "JQNWpct7JZVhR1OGC2VAfe7YRWzxAzKVaRxddHpRQHUm+jguWW3d8TRWV8qx/qJ+WCm3/B"
        "NRrNKQd5dwv1bOdC159t/esdmJo9NaHDx2INrc/A7Ze0IjQ9snsLFC9Gb2g66ccnSOizbr"
        "ztdlPW+bzpUXmb7ugSEPDzqpx89L/rESQVc2oVUMRkLQFhFfWkq5BbuBDv2YqN2pUYTrrz"
        "dOFwAAuKDcc47kGVhKQZxn8LqQmqtgQxMmAQAAAIPrApOD+AxXc5RqZ3Qs3CR4CAAgCjL4"
        "ttKDGZpZThxnON23CJU0GA2ExeuKn2hgcxsTzmVkKKuB84ntv1HkELJts+F+zuLYjxQXY4"
        "B6U/RGp20kP9MOt6d5CQGtw34xjxTVrfVkuVfzp5akpUMEtah7IVQma3uoUVvftUoW/9tz"
        "ZP5Unvhc32V8DNLn9KJ373IbRiSnjo+wl3OjmNIZa/fqsS5J0lqdoBNtIrvxplSUQJ4wS3"
        "I1E6mwBNgqnSa19ge5rMqIGNcAAMDvZsuW2G5aBWtXWIO3LPPTeHBsICIBAACA5/esnNmO"
        "KTibZoYowjogQP/rAADfwwoWfOBMnMMUMYaptL6fj/e4bg3QPkP6prMqXosg8uK5CEfWQ/"
        "b5T28z3U1s9KNgbnlNwy6LohHwn/kaU/OaGJ7nhkmPeBVNUqLniGGLE8+W0OlG4jbjqnLq"
        "3JIlvHBwgtqw67d0PxYmsevyrMOnMjn5hlAkE0HRox9iZ0GZgp0dpbUF5jE5icz4u77oPm"
        "aUv6w78KRqzBWThVrvIh+qJOtOMJYsfwwGwp0iTLGmOzyuQuCecAAA8MAuVc5/5+ULVNa5"
        "gHUKDb0H7p/AGAAAACD9YUvP/wAAAP//BMFNaNYFHADgx03nPhru3Xzd3OZ83znfveuwQ4"
        "FhCf8fldAlkqIRRBp9HKTQg0khIR06lZB56FCKYWOo9HUQAyH+vw4dOhgmBQUjoxyZpk3z"
        "Y7gYPc9f2Ioz06b089UR+J0DUwAAI7CHyl1H9nmC87xOK58emsJpFjwF7HjGzKubnNj1AN"
        "u6zu11+xBsX5w7yHGb8aAZzT9PTC7/0vAc5pwxbcf971d542Mtvh5zAZuMX3nYo0zZeqiN"
        "9wx9u933fZcOeMW7zv5cnNK1un7cir2Trh5+69rs/rOc+s/Y55wH5x86hhvPb9Z9rP3oxE"
        "dO8tgdXru7Tdn+pgVvm93ygn/Q6uQtXPUhPoMbnnY7nOOoxd3AfabZ4h3fXOdZM66t8DgA"
        "AGja67S+pl0f8Pc6T+IHA3bvB8/tAwAAAGDkkZ2HJzCBZlNTk/FxaNBoAACMwQY2jBodNU"
        "qdOnVqtRrWM2IEGB42NDRkcHCQtWsHBvT3w5pqtcpqq9GnV2+lUqn06FmFbvfo0tnZ0cHK"
        "Nm2WL9eCZSwtWWTB7Vs3mXft8mUX//ht1o++M33wi3Tup18uuDh3yZWr8/PX/73JnQWLiy"
        "yBltZWrGhbqb29o6OzUxfd3axa1aOnUlHRq7evTx+qqlWs0Y8BWGvQ4JAhhg2vA9ZbT01N"
        "rUZdXX3UKAAA2GijjRoNjQaNceMY19RsgokJ3AsAAABMTk5OJhKZUpIJSSYAQEKSKVOSJE"
        "lmIkkJZMpMmUlmpkzIzCQlUsrMzJSJlFJmJplSpkTKslRSKsuSUlmWyrIslUplURSKoigU"
        "RaEoiqIoCopCUVCAiEBEiIiIEEQQESJCCBEhECIQAgEhRAhCBBCCECIIIUIAAIAQQoQIIg"
        "RCiAARCAAAACAiYuXOXS/tfPHlPZeXAWV88uv/AAAA//+Lipn4xjNduKqmL+LzxPy8JZcC"
        "lrIulSxMdnit3MawM9l8uUal4/nGfwfdLDMypLLv3BTwm96z+pOqyJk6m+TTujY/d6+Pzz"
        "fuak3417CoWdtgnsEk9fd7nzF9OzRt7WemQt5yKad6+wtZbheFu3Z9WdHHPvvYuibH1GVu"
        "H99K5P0y4Nhx5fxb3YKu48xy3FfnzIzJXP1TXXA1S8qHp/ddPjUkcqbtnrZDa0ljFRf3Mp"
        "OTz1P/Hbnwv62UU/dDq/cEY49teVdPsPMeL/NmvL1l65kbl4//LbOMK2EQeHr/8KbT789m"
        "bBH7KFU/eVJ0XWLP/WZ1fXcz17Rwc4OyJYWCdvsZgICRkZGBAcGAEAwQJgiAmGAKqowBxo"
        "ILMIIRjAllM2JjwDQxoqhH8BjhonB1EAfAlTMiDGREWIYbwL0EcwkjA3tRYnlZYk5xBAtE"
        "uL84QCrg0sWlUYuCfpoxfJ9aEfBx7a6WoASOZRZHDu3K3cTkZpyx5PrJpEcVt36rNHTsf1"
        "b35UrbloaUOQ+YlgQvyDlr57Myj8lqhtCxxWE7LD9sSTiRcKFobmpP1dm2jD2zpr54Nkn3"
        "6aFzz8PnHf6WFuz9eP+RPM3bEaZlPLsOsgidCpi5YUGmkBp71vmqh8qRZz4E3FzT1nbs62"
        "q25RO+LXY6qLdYp3bS1f2uRs8mr5njyCjEcFZotanRVKmYcpbbj59nKrxwD70YcVHEMMvo"
        "2EW7QxP3Zb6XDeroNbkmu/Pi9Y5vtz2OXvitp2syLUBVnH3WUS6921LHF7v2dy6f9DLw13"
        "/eG2fnWAtZ63maP2Eu/LVc/NW1OSzsqRpXD/9nc/jjuH3C7F5t3wOxl2/v+FrD6mid8lLv"
        "aNvrL1evtbgvXPWki83o+rmH7mEpzseX7t918e3SBd+PS4tUZzdZZ3iGcmiqZT/0itsR/e"
        "GS1iKB41O/xpn2v1rObmXZHnbHK5i3KU/yV7XyzZzXHCVKxy6Y/Qvhqnizc5XKPYZu2R38"
        "Uis2eRddDw7T8ZpWv3TpmRnLPl99r6+8QL7+3rn+6ZNa4xz8uxy8Frk3MMjtf3GZUYThxt"
        "d7080lGv6L/GCYlT/j8wtvE76TxQ92WPJOTP36+/nk2WX3Nvz/+yPd5Lh4m+POtQ833V70"
        "55jV99+/vzC/b7125Wun7u/y7vOSzRMeH1zjc+/mp7SZt55LrO7W7In7c5f3i71R+mf3N6"
        "2RpxUuvV9dwPZaqM9ApPCzvu1LO95D97dlNbPcWf9oqSb7pEuigmwJRyfKtny6FFD1MFxT"
        "9KGdXn3zlIbp1dEr2z9LXSnPfvrR6qdaA7sv93T5+5WrGr37vgTMn3kx+z3D2pPhTgF1uo"
        "d3O226rNqt4662ovPXs1UimpLCGk9FolpmLskWWpiRXrbsS8iuACGOQpd5qcf/eRZyppr1"
        "PG15qfZgy7aLLT+7LlXNV1isMVeF5+a2nJ+Omoe2i+w6MfnypZS0JZdn+G7ut/v1ICjsaL"
        "2l7bWnLitbP87oLH4qp9tZrBsel95fKHm4+QpL9qkJtQ//FkhbX15ZYtj1J2V+qNc+23t3"
        "Y4Xc5vL90NGSL7+kZvL87+frOycpHJmzobZ3+cm3p932RkicES+MMZDYpCuhrPXlro2Hp5"
        "Wuh6fqFUsHWzMXW1U3I0E7ZwtNcyN7GytRGxdrQQtrA1k7J4t/Vk7WplbW5lomqo4ORkLm"
        "7uamlhaa9i6Gok7Gxk6m9pqOruZmD7QtTD9ZONl8sXO1ErdztHdW1fO0UBX21LVxkjB0sb"
        "A20VZWsbfWtjbQ0jI20DLWN9fR1TW2VNE2M1c207Z3AIIDQABnHDiAynI4AJeHiEFlIBgi"
        "AJVzACmyBzL2YzEBYqoDBIB0wQiQOSAxAJZyct1tFQAA"
    ),
    "chunked": (
        "UlBDSwEAAwAAAAAAAAAYAAAAAAAAAIcDAAAAAAAAUlBaMQdnemlwLW10H4sIAAAAAAAA/w"
        "sKCHdmYvBnZGCoVkosKMjJTE2Jz0ktS80pVrJSMNRRUErOz0vLTAdyqpWSEpOzU/NSgGyl"
        "9KrMAt3cEiWgAqgoRBdQzgwollpUlF8Un5RfCladV5qTAxREMTYvPikzD8wBqS8sTcwrya"
        "xKLQKZXVCUX5BfnJoCMry4IDM7Nb4gsagksyQzH6zBAihcngg0KrUEpDojMbFIqRYollJS"
        "WZAKEknLyU8sMTMBac/MS0mtiIfLlGbmlVgogW1Pzk9NS8tMzkzNKwG7wsgCLAxzCMjZFi"
        "ZAoYKcxLzUYrD3gXYWJaanwtxQlFhelgj2jwXI+uKMRLAl0UA5Q7PYWhYGBga2pMyS3MQC"
        "AQYIkA8IOM3wHwj3M8Tb/9///+/j/z85YKY2QBX534gz/z7vqdTF0LPWC9zXhQfoGlxnar"
        "jrs8YrVnrC/ZMHD92wru3KvRpvzzPDdq5erv7nxXVVs9i/x189svDFhTDGgmtzfRgaMx+1"
        "lP4/maZg65PhqDvnoGiBxtLqyY5FC/4oWz6V/L1CXVlBQoDl0QcOISlFVXUt/QNgsN/eAQ"
        "rYgeGWmZxaHAJ1k9nCBdHMzKwc3DycLCwsTBysvLwM/OxMrJz8DMzM3Bxc/HysjKxcHGwc"
        "nBxsrECSmYGXgYmFiZ2XiZ2ThY2DlZ+Fk5WNjYWbh5WJg4OLl4ORgY2dnY+Dix0ahgmMEH"
        "ue7NlyIuDSxaVRi4J+mjF8n1oR8HFtS1ACxzKLI4d25W5icjPOWHL9ZBLPLpZTATM3ZAq1"
        "tR37uppt+YRvi50O6i3Wqb2639Xo2eQ1cxwZhRjOCq02NZoq9YT5l/ira3PYU30PxF6+ve"
        "NrDaujdcpLvaNtX65ea3FfuOpJF5vR9XMP3cNSnI9LrfC+HhymM63+3rn+6ZNa4xz8uxy8"
        "Frk3MOx/cZlRhOHG13vTzSUa/ov8YJiVz/vF6LP7m9bTCrYv7XgP3d+W1cxyZ/2jpZrsl0"
        "QF2RKOTpRt+XQpoOphuKboQ7uyZSEBQhyF81K3bLvY8rPrUtV8hcUac1V4bub8dNQ8tF1k"
        "14nJly+lpC25PMN385E5tctPvj29N+KujYenla6Hp+oVSwdbMxdbNyNBO2cLTXMjexsrUR"
        "sXa0ELa3tray0tYwNjfXDEgaIQzjgAZ4BZDgfAXJAIADggFhLxAwAAxwMAAAAAAABSUFox"
        "B2d6aXAtbXQfiwgAAAAAAAD/CwoId2Zi8GdkYKhWSiwoyMlMTYnPSS1LzSlWslIw1FFQSs"
        "7PS8tMB3KqlZISk7NT81KAbKX0qswC3dwSJaACqChEF1DODCiWWlSUXxSflF8KVp1XmpMD"
        "FEQxNi8+KTMPzAGpLyxNzCvJrEotApldUJRfkF+cmgIyvLggMzs1viCxqCSzJDMfrMECKF"
        "yeCDQqtQSkOiMxsUipFiiWUlJZkAoSScvJTywxMwFpz8xLSa2Ih8uUZuaVWCiBbU/OT01L"
        "y0zOTM0rAbvCyAIsDHMIyNnmpkChgpzEvNRisPeBdhYlpqfC3FCUWF6WCPaPBcj64oxEsC"
        "XRQDlDs9haFgYGBrakzJLcxAIBBgiwtr+5jaGR4TPDL4a////Xr18f//Y7B8zUBqiiLMY2"
        "huvWzIc+3RZbzZ6785HzY43Fu1ZN7QxaLrNTdNblAy8uicyrXqlpNF1oHcOU1UExVcaHz8"
        "2b8fNg5j3d/R9er/c5d4RzTs5FAQOLfeddMyQbV7NeOp2stM2XzVnt7OG5km+Xvqiv4pUV"
        "F2D/cOY7u6C4jKKKuqbeASDYb2/vAAPswHDLTE4t9oa6aXJk/D8mFh4ufi5eblY+DlZuLl"
        "5GTl42NgZGJlYOTg42ZmYGRhZ2Lk4WRnZ2Nm52Jh4ORlZmfhYufiZeDn5WdkYOVjYOJl4e"
        "LnYmbmZuoCJo0K1ghBhffW/3nYpbv1UaOvY/a6n7cqVtS0PKnAdMS4IX5Jy181mZx2Q1Q+"
        "jY4rAdlh+2JJxI2MOsxn6+qiTooatBOcvtx88zFV5Mcg+9GHFRxDDL6NhFu0MT92W+lw3q"
        "6DW5Jrvz4vWOb7c9jl5Y5qFx9T/bMmUHFbP9uy6+Xbrg+/FsaZHq7CbrDM9QDk217IdecT"
        "uiP1zSWiRwfOrXONP+V8vZrXjyli6dsWx17+elNZ9feJvwnSx+8GqHJe/E1K+/n0+eXXZv"
        "w/+/P9JNjou3Oe5c+3DT7UV/jll9/71j2qX3BWxz17wurqpvntIwvTp65Zz2z1JXyrOffr"
        "T6qdbA7ss9Xf5+5apG774vAfNnXsx+z7D2pKDV8X+FnM6dqdGadr8eBIUdrbd8aXvtqcvK"
        "1o8zOoufyul2FuuGx6X3F0oebr7Ckn1qQu3DvwX7XSXOFMaE/TJYwi9r52Txz8rJWtPUyt"
        "pcy0TV0cFIyNzd3NTSQtPexVDUydjYydRe09HV3Exd01xH11hDyVJDGRTroDg/AAYQCsSD"
        "ioBZDjDWASgAADtQc2IwBAAAmQMAAAAAAABSUFoxB2d6aXAtbXQfiwgAAAAAAAD/CwoId2"
        "Zi8GdkYKhWSiwoyMlMTYnPSS1LzSlWslIw1FFQSs7PS8tMB3KqlZISk7NT81KAbKX0qswC"
        "3dwSJaACqChEF1DODCiWWlSUXxSflF8KVp1XmpMDFEQxNi8+KTMPzAGpLyxNzCvJrEotAp"
        "ldUJRfkF+cmgIyvLggMzs1viCxqCSzJDMfrMECKFyeCDQqtQSkOiMxsUipFiiWUlJZkAoS"
        "ScvJTywxMwFpz8xLSa2Ih8uUZuaVWCiBbU/OT01Ly0zOTM0rAbvCyAIsDHMIyNkWRkChgp"
        "zEvNRisPeBdhYlpqfC3FCUWF6WCPaPBcj64oxEsCXRQDlDs9haFgYGBrakzJLcxAIBBgiQ"
        "efUgi+E/EH5lsK///+P/9P/Xf3PATG2AKvrEIMU/82TM/QrR3/GVFa9uT92zkl3WwGrqnq"
        "NvK28fLxDwiImrXv1OjePY97+nN9TV//ZlPvvq8yQvtmDrwsMfpwS+6Nt9eMpu3XV/TLZk"
        "flQ+86rrbeALz+teciszg3JUjMp8PnEkz7FVUpASEWD9eO0nu4CIjIKy2gEw2G9v7wAB7M"
        "Bwy0xOLQ6CusllxkYlVhY2Th5udhYGJnYeXi52NiZmBhYmLlYWBj4+Bg52Lm52ZkYuDjY2"
        "dg4gh5mBiZmTg52NnZOdiY2ThZWVj4mFn4WDhYeHkYGRiYmBh5mVn5edHRqCBYwQW/q+x3"
        "BeKJqb2lN1ti1jz6ypL55N0n166Nzz8HmHv31KC/Z+vP9InuZtpohIrzNMYR923Vwj+FtP"
        "12RagKo4+6yjXHq3pY4vdu3vXD7pZaD8r/+8N87OsRayFtJzNN6u/2lCeq/2bcv2sDtewb"
        "xNeZK/qpVv5rzmKFE6dsHsX4gRV8WbnatU7jF0N8m+n6GvIKn8WL6+4/cX5vet16587dT9"
        "Xd59XrJ5wuODa3zu3fyklTbz1nOJ1d2aPcfj+mINpnwU+fNZ3ybcKaBO9/Bup02XVbt13N"
        "VWdP56tkpEU1JYXeOpSFTLzCXZQr8X9gg8ZZJo+aT24La09eWVJYZdf1Lmh3rts713N1bI"
        "bS7fDx0tBvnyS2omz/9+vh67c9Mr3fWPJMK0vsx9oG1h+snCyeaLnauVuJ2jvbOqnqeFqr"
        "Cnlq6Nk4Shi4W1iaa2tqaZupq5mpm2OigO7UGxCaQh8QqO0gNgHoR1ACwBFgIALD9pXv8D"
        "AAA="
    ),
    "temporal_delta": (
        "UlBaMQR6bGlieJwLCgh3ZmK4yMDAUK2UlFicGl9cklqgZKVgqKOglJyRmJkXn5mXkloBFU"
        "kpqSxIBbKVbNIslID81KKi/KL4pPzSvBSgqIGegQFIFVhHPEJtphFIbXYmWJFSSWpuQX5R"
        "Yo5uSmpOSSJIJie/PCkxLyU+J7UsNacYqMYIKFiQk5iXCuJUg8zLTAazjWpBMkWpQH5Jfh"
        "HINCCnLDO/tBhkTnFGItjGaDMdBYvYWkagp9ihehMYIOAW78MmmcXZjIdOfTcJK9qyP9ou"
        "QcBbMnqiQqWfeNCqg1sn7/3KIqMzj892aeCPLrsrrpPsDtn9Z/zHwMjwn4GR8R+QycgA5D"
        "Ey/gcxQAJAQ4E8kBoGIA8kAQBmx3BF"
    ),
    "lossless_f4": (
        "UlBaMQd6bGliLW10eJxFUHs4k3scn9wSx61C1hyxp5LV3MLM5X1fNU+aZpTbZBamlRPZyl"
        "yWFjmizFHIUabL6RFxiqwHtb3vxJFSqVDT0ErP6X4hT52D57x7V8/5/PX7fL6f7/f7+X0j"
        "wqODF+C24nC4XKdkQXZGipOfo5M/18uJ5Oi0m7cnWUvT0vn8tBQ+fy0nM5OTra1kpHH2pP"
        "DRGtrEEXDQh5cIlfk7OdgAlocXydHde7tID51roHXgjHAYlk7msHG+5sK/35BiHR4t5zyJ"
        "PDjl8W7Mr6OLPP/+l2e0tXzXxmUBKeNLL399/5g9woK2rJdO+Pst3PjbiuM28eXF/FS6+L"
        "XMzV/59vZIXBwPf7WZzbt9PgyB48/Wer2vMevb8ufTh7BlIHgl7qlxfWIJcp8776F5QvM0"
        "reoh31STZkkl576EtDWU7AplTXefTgx9/tdAauZEQXos85Vpq8yZ14q7+PwjMHamgCZlf2"
        "mVGu0zjBnf/TlujUjIVtc/so8/tvoktUJpd6/DBndDk7DIZYnDg4BSLsvwcmsqndtQB6mj"
        "zmRKLeStYVSodvqUOnlqFcSrgexU1PpFNdt+3fbHY9FwvbiKvzKqLZKwJP/5+tMuHy0u/O"
        "uZ9VOQZ1zXqqlDYfcSDpTKL0l6Si3p5FfVM5WqfXXHspV1A6UbZW1TxoHnxg1G74spi1u3"
        "nuuqYJy4MDnXmU6+kvEtiwDtWMYqjnlAfJ2TMMTH76+B74bt7NW3yinTfze/LT/eqm/7up"
        "Z9XzrWHcGp+h9MmsqaAisbZLsvWjRVNceccQDeePWeUQexNWaHRfGO14Pdab5XpMUjPO6z"
        "Gk/fCqqndxcp4N+RCNLPSGHK/FOb6SU3u6s3ucqk68tnF7lzEhY1NkQlzyTJiZ0ZRapvfv"
        "+MrV9xrKwKwvey9LNOLUks3CJKJCdW2Kjv2DErZ1Lm5pxHKLn+xMzjN0Q3TgwT8p623LVu"
        "YydsV2gIkZLKwarCdUIf4wtX2edoPjNO3iZWydKS9PJgl1bNrnENWCuGpJH2AePytCGFXi"
        "eeuKGNQ4gtD1nptvpSw4UjzrKko2/1w0/fmpjnCj+bvKbeOYKERPj5zQ4Unxqqhd+MRrNf"
        "RIo0tTyXML8pkVCef+952diQ2mKw2kYVyR8tIXeq8z01yvC7qYLb+P35g6MDN+CyxkKzQ6"
        "GP8bSAvawISl9uhDExrJvISpdYXm0EBG9x7ylWgK0s2Dq9kvEy95RvFEh5djIvqUxul1rn"
        "mPvtUmmPYdbNSWa+92X5gVW0lj4CI/NgDsvlgT7hPp5Ko9j26BE1ayNivNV2d2h5Qh/paP"
        "/nbrGgn0AeVzhzvK+51czKNm9k629tITwpoJpnjMWvs20mXwsUDhJMbg1bE+fF82RNNGEs"
        "fAcEf7pkyBOLPjSF+r4coL+YEJqr8uZGQPt+nmTaqM0nI2PP/sE3tcrYPWIiaCTW2wt8ol"
        "wdhlYYNmxrj4m2UOkximO/vHwVFQeA4cs6fJmSu+bF4mpDg3oXdXDSDlt/kymzkx5JkRY2"
        "FZ4Fm+hpSwMOVJ9uF+Lp1itvGmzyDcl5uCq2iR5Bl2WZu27+4DMj6HDbcP2QK+nx/t8XLB"
        "8xNd8poLQ7MEtzGeFF7epJRZSkaGYFmbjgbP/EUXlfA8MQf/6F3uw9cfbiix8W6g/E2NRZ"
        "h3B3brYqQEbJzDBi77DBYUnaRkGv9RoTe4QpCGxNmPYATF0PRjdbvmIEGmczKscUQ6QQ97"
        "IeJsG8U8VJidlV6ci2lcRzQw36vyonu2ksqoVeZxEI6QCCCKLUAkFATAMBjCMAiAEVYKyK"
        "AsT8EIhouVIJgADwQ0A5AiOIlkFoJ8YRJQDAWB1dEoT2KBWIdqJWABAY5YgSRCCdACswDn"
        "9X0A50iBJzYAYIQrRrlKgDgLRrUQGRaw1oDhjEBBiLhQRiSbHo2hRaCeM//qJEFOD/UOj+"
        "j8C6DwMIFh2BdX4Q1l1He4/v19FBqZuKCkEgiDFAjsCYAP44EAgG6YIAumDaE3+PDv8HAs"
        "wBSw=="
    ),
}


# base64(blob) of the filtered temporal deltas (no version-1 twin)
V2_FILTERED_BLOBS_B64 = {
    "temporal_delta_filtered_i8": (
        "UlBaMQR6bGlieJyFj8FOwjAYxzcHUzYSbhwJ6RkMEGOM8eYLGC8ejFkKLaGhbss2EIMkPo"
        "bv4Gv4FDwCF0PCZOo6/ArSmF38p/11379f/+2ur24uD7R3TdOmqItD6oQR9dF5vd2oo94A"
        "M9dhLqGTX4dEjz6Fb3TRP0NQ0yDwAqfrjVwCbuu41ZJdfcYjGoAxRXjCQrkD7pBtmxChPM"
        "JoBs422VGZT6yN/vRF9N73AsybuwOww72HLnaJw+mYchnbAdPn2KWymMpIP6CE9SJP3i6L"
        "MfNGoTwbDvD2ltvOSaPePr2b6fDLR7uXUvIsK1B5+PL6llRrlUVzvlzOm4tKrVqWsstqgW"
        "nbQAXLsm3LVihZVqkE3OMwJ7NYNM2iqWAUCoZRMBTgKbqu6QrZZpNlm0xBpKkQqVD4yinJ"
        "6SOnGEYM3GP1j2IYMXCP3Vwp5POT9TpJ1onCZ07fOYksEyITCj/IrUWD"
    ),
    "temporal_delta_filtered_i16": (
        "UlBaMQR6bGlieJyV0r9PAjEUB/AiKgwyMMpEupmgHBdDjDFx8B8wOjgYOAtXQuNxd7kriC"
        "HEyf+AzTg7OTr5H7CxObi4GUYWVPBHe2g034X4mdrX1/deL3ewf7S3QKaEkA6tsJBboeQ+"
        "3c4WcllarTPhWsK1efs7Ystzn6s13altUbXnQeAFVsVruraKGhuGobNqwpE8UIEOZW0R6h"
        "MVPRVRErW5IxntqkhU2fqtKUz6J0/yhu8FzFmfXVAnjndWYa5tObzFHV3WVEHfYS4Po2az"
        "vlzfNnV9X61FVXp6FL1pCa8Z6kJhnUUtj83NXLZQLHVj6v3Jn+skTiLXJ7u3D1f5Xn9QTh"
        "SLifKg38tPwR1YA2VQAnnwBC7AKrgHEhwCBm4AzvMO0qABVsAzGAMDXILHSSqdHGWG4/Ew"
        "M0qmU8v/tAQWQRzEAAGfAL8P/h8T8AZe53gB8/KxPsJ5cP4P8AV02QJ3"
    ),
}


# base64(blob) written by the retired ``zstd`` / ``lz4`` encoders (zlib
# blocks in their private frames; their native wheels were never
# installed); decode-only: nothing writes these frames any more.
RETIRED_BACKEND_BLOBS_B64 = {
    # GOLDEN_CONFIG with backend="zstd" over golden_array(): one block
    "zstd": (
        "UlBaMQR6c3RkUlBaUwECAQAAAFICAAAAAAAAeJwLCgh3ZmLwYmRgqFZKLCjIyUxNic9JLUvN"
        "KVayUjDSUVBKzs9Ly0wHcqqVkhKTs1PzUoBsparikhQloCxUCKIFKGEGFEstKsovik/KLwUr"
        "zSvNyQEKopiZF5+UmQfiGILUF5Ym5pVkVqUWgQwuKMovyC9OBRteXJCZnRpfkFhUklmSmQ/W"
        "YAEULk8EGpVaAlKdkZhYpFQLFEspqSxIBYmk5eQnlpiZgLRn5qWkVsTDZUoz80oslMC2J+en"
        "pqVlJmem5pWADDWxAIvC3AFytTHImQU5iXmpxWCvA60sSkxPhTmhKLG8LBHsHQuQ7cUZiWA7"
        "ooHesYitZWFgYGBLyizJTSxgY4CApw5KFvb29f78/BwwoxqgUn0b1/RlMzRsBTKvJjj0HmBo"
        "SHBYxLDi/7o/FUv3xizXUS005VVn+FLzVcX9H8/R8H3nbs0oS2Dwkr7HqbuT+cdvCw+VhFdO"
        "DFY5ZTeL9+n6reN943n65UmGMx96k9bHuH5tW8dqasj8juHJg8vHF526cu/Ji/efvv7cz7Af"
        "COzhgB0YVpnJqcUKUDdJ+cbvY2ZlYePg4uNmYWZi4ufg5eLiZOcESjHzcLGzsLBz8bBDAwHm"
        "D5s9Xi4f1q/Z4LPAw+SAxA2GGccOfLCznJsVsfgez38u0R4joZdVM6N3ntGz/8junvbk1BYW"
        "VT97r+IjndJhgpVTKmZFZWZp/O/q6vVa6H56Q03EFdXAfXHyTQIfE89M5jyRXVv2IrbTIDIy"
        "MlyIR1CWS0pBXl5BksMBBA4AERCAmAAymfUE"
    ),
    # serialize_array_lossless(rough_array().astype(np.float32), "lz4",
    # block_bytes=1024): two blocks
    "lz4": (
        "UlBaMQNsejRSUEw0AQICAAAACwQAAAAAAAB4nAEABP/7UlBXQwIAVAAAAHsiZHR5cGUiOiAi"
        "PGY0IiwgImtpbmQiOiAibG9zc2xlc3MtYXJyYXkiLCAicGxhbmVzIjogeyJkYXRhIjogNH0s"
        "ICJzaGFwZSI6IFsyNCwgMTZdfQEAAAAEZGF0YQAGAAAAAAAAFeV6XwA4Dnjo6yxZHtQcYdlT"
        "gPMy7d46ubsv/u5t4UYtcyuqGT1l3xWw+O7YX9dbQk41n+A8OghFkSGTFlyQiHNnTIHqtjA8"
        "wuzL11paaRu0rV9py6RNwcBcops07pkMyE6v3NPAED5BsVrcB6BgisHQZv4y4tlGMwuWxS/E"
        "3Sz8LIqj9UezqIpqSlv0w51gSuPHzWdy4INvWVHpC7K2I2myAKnj8EDeoYNGn1/1sp8GdQVY"
        "32vyWip9eF/doNQaXI0omDuSwhjPuRYAveJeCikUHtI9i2ZbBbCyZ0xmqJ5C3Vahcp8PvrJN"
        "O0Kb9JzdZPMnQmmZQhjaO6AKmVWHVaXYfdaggZZzJlazUx0Uf+M1nSnwD6b7M3cNPzNauyfz"
        "gk3PXn6LvqyPxYsQTC/pl/aV2nWejXnCns2LRbaz8wc+o98E29CBOROyVKO7kk+UpuX9um8v"
        "sXD5dx1CYhlbiFjSJOp6XtVzG3aZwM5NaMYDEXqOA+3+VX9cEchdLq519bkuiQDaytLlC7ar"
        "PpWotmupD6uWrVihHkDrNMah3T9f4gyFfVwgvEMxRjixn4jXaWbhmTM4kjszNrssPfvXUiwf"
        "wYRl/twW9BTEw5dJK7afNZD8CjFhXgqqqFZk9mO+JLpwhtr5OvreNSGNjpZCG8ZbA3ecFGCE"
        "Tn1gL2CSFt3MGFGV9mX9/SPXOXs8JHKTvX29lNYdfNyuzhKzX15dv+IdU4+V0ZaELng3B6a0"
        "X6NGN/YiNgkRZJ+Kb5BDKbLiat/iQZuBQp9TGj3fvmzVvwG6GyREs2EdWZBHJjAorKimiSO2"
        "Y4zsA1CdyeD+ZnjyCeo7zInBR1I6OvzNiJzVm8Dr21df5FN94ptpKU068314vn/P447e1d0P"
        "0ZcW2lNz24ovut1/M+LCUM5ndMsbdn/R2829wI6qhAyCStgbRj1xW1I5yHtSByRNwyRbb48Q"
        "tKpAdOwA7jkRQBe2QxJvlU/me5w4VkE54Zh8Y46+GGeeIHv5rIvFBXfE5VF/NrC+fidGrsgd"
        "T3KAelsp0gMd0Bs7RjkXxQEk4i1SWDbdGMxGfHg3n9vK8sOBdModL9+/I2E2tzCZ/LZLRV8D"
        "VK4d2YM7DnDeXC4XrS+3PnjRHQnJ1hIk/oH+L+JXHd5QYkLA8awFaYF976tKOObNTOTgeA7a"
        "fP3XQRrKaY/0BrM3cHBudtHrm8JZboEkQQaBAXFA8Umf3fLdAQAAAAAAAHics9xyzUmRdUXo"
        "1ohw/luM/h2RX5+9DItycAyQ3GkR2H+Or6NxOivLAs27zslJ4jacn3lmGCUH84tNMm729MkR"
        "ta2bPndrhbSPkNoRFk8L96rL6pGrfYJ8tpXzaXu/N/9WstPAZU+Tts6NsllMMte5+TJKLLfK"
        "BXZX+we0bb37dH9Yf9s3RX0VpkWnHvTsO7HCn1V6yRPGP+cbK4VXvudgPhshNk/IPS3DW7D5"
        "4G39QF+VY9dYWvtzXEuOCWlxSh0MLLHbFPfFyIFbuyF8rcBLfzv2Sv+p9/Zf1XE37DsaKMu3"
        "61ZiakTWVIV48f6YNC+WUz8OPT3sFm3Nz7irzdEJAhwdDx48BAIHDzqCxRwdwPyDDo5gABQ4"
        "AJYFAkeweifHgyD+oUMOjg4OMAEg/+CBgwdBPCegTjD/4CEHhwNgeaAl9kA9h/YfBJkIEnA4"
        "eADIP3jI8aATRODAfjD/AFQEqANoyCGwCrACJ6eDIGsOAVU4OIGsBQoc3AdSAHTHAUewwAGw"
        "sw7agV0KdjrIFSAhMB/ml0MH9zsiwH6I/w8egHjY4SDY6QcPQNQ7HoCEDig8oKEDAYcgpgIF"
        "7B0dwTyHfQcPgAUcYQHk6GgPcYgDxGGgIIY6/QAABAojSw=="
    ),
}


def v1_blob(case: str) -> bytes:
    if case == "pipeline_u8":
        return golden_v1_blob(GOLDEN_BLOB_B64)
    return base64.b64decode(V1_BLOBS_B64[case])


def v2_blob(case: str) -> bytes:
    return base64.b64decode(V2_BLOBS_B64[case])


def _body_version(blob: bytes) -> int:
    if blob[:4] == container.CHUNK_MAGIC:
        from repro.core.chunked import iter_chunks

        blob = next(iter(iter_chunks(blob)))
    body, _backend = container.unwrap_envelope(blob)
    return struct.unpack_from("<H", body, 4)[0]


class TestGoldenDecode:
    def test_decodes_to_expected_array(self):
        blob = golden_v1_blob(GOLDEN_BLOB_B64)
        decoded = WaveletCompressor.decompress(blob)
        expected = WaveletCompressor(GOLDEN_CONFIG).decompress(
            WaveletCompressor(GOLDEN_CONFIG).compress(golden_array())
        )
        np.testing.assert_array_equal(decoded, expected)

    def test_header_fields_stable(self):
        blob = golden_v1_blob(GOLDEN_BLOB_B64)
        header = container.peek_header(blob)
        assert header["shape"] == [6, 8]
        assert header["dtype"] == "float64"
        assert header["applied_levels"] == 2
        assert header["config"]["n_bins"] == 16


class TestLegacyDecode:
    def test_pre_wavelet_key_blob_still_decodes(self):
        """Headers written before the 'wavelet' config key existed decode
        with the haar default -- stored checkpoints outlive releases."""
        blob = golden_v1_blob(LEGACY_BLOB_B64)
        decoded = WaveletCompressor.decompress(blob)
        assert decoded.shape == (6, 8)
        expected = WaveletCompressor(GOLDEN_CONFIG).decompress(
            WaveletCompressor(GOLDEN_CONFIG).compress(golden_array())
        )
        np.testing.assert_allclose(decoded, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
class TestBothVersionsDecodeAlike:
    def test_fixture_versions(self, case):
        assert _body_version(v1_blob(case)) == 1
        assert _body_version(v2_blob(case)) == 2

    def test_v2_decodes_bit_for_bit_like_v1(self, case):
        _encode, decode = CASES[case]
        old = decode(v1_blob(case))
        new = decode(v2_blob(case))
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    def test_layout_is_reported(self, case):
        if case == "chunked":
            pytest.skip("chunked streams report per-chunk headers instead")
        assert inspect(v1_blob(case))["layout"]["plane_widths"] == {}
        widths = inspect(v2_blob(case))["layout"]["plane_widths"]
        assert widths == {
            "pipeline_u8": {"averages": 8, "rawvals": 8},
            "pipeline_u16": {"averages": 8, "indices": 2, "rawvals": 8},
            "temporal_delta": {"indices": 2},
            "lossless_f4": {"data": 4},
        }[case]


class TestEncoderDeterminism:
    def test_encoding_is_reproducible(self):
        a = golden_array()
        comp = WaveletCompressor(GOLDEN_CONFIG)
        assert comp.compress(a) == comp.compress(a)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_encoder_matches_golden_blob(self, case):
        """Byte-identical output for the fixed inputs pins the format."""
        encode, _decode = CASES[case]
        assert encode() == v2_blob(case), (
            "container format changed; if intentional, bump FORMAT_VERSION "
            "and regenerate V2_BLOBS_B64 (see test_generate_reference)"
        )

    def test_format_version_is_two(self):
        assert container.FORMAT_VERSION == 2


@pytest.mark.parametrize("case", sorted(FILTERED_CASES))
class TestFilteredTemporalGoldens:
    def test_golden_decodes_bit_for_bit(self, case):
        scale, _index_dtype = FILTERED_CASES[case]
        base, _blob, staged = _filtered_temporal_pair(scale)
        golden = base64.b64decode(V2_FILTERED_BLOBS_B64[case])
        decoded = decode_delta(golden, base)
        assert decoded.dtype == staged.dtype
        assert decoded.tobytes() == staged.tobytes()

    def test_encoder_matches_golden_blob(self, case):
        scale, _index_dtype = FILTERED_CASES[case]
        assert _filtered_temporal_pair(scale)[1] == base64.b64decode(
            V2_FILTERED_BLOBS_B64[case]
        ), (
            "filtered temporal-delta bytes changed (filter choice, sample "
            "layout or container); regenerate with test_generate_reference"
        )

    def test_header_and_layout(self, case):
        _scale, index_dtype = FILTERED_CASES[case]
        info = inspect(base64.b64decode(V2_FILTERED_BLOBS_B64[case]))
        assert info["filter"] == {"kind": "delta", "axis": 0}
        assert info["index_dtype"] == index_dtype
        assert info["layout"]["container_version"] == 2
        assert info["layout"]["plane_widths"] == (
            {"filtered": 2} if index_dtype == "<i2" else {}
        )


STOCK_INFLATE = {
    "gzip": gzip.decompress,
    "gzip-mt": gzip.decompress,
    "zlib": _zlib.decompress,
    "zlib-mt": _zlib.decompress,
}


@pytest.mark.parametrize("backend", sorted(STOCK_INFLATE))
class TestEnvelopePayloadIsAStandardStream:
    """Whatever the deflate family does inside, what it emits is one
    plain gzip/zlib stream: the stock library inflates it to the body."""

    def _payload(self, blob: bytes, backend: str) -> bytes:
        prefix = container.ENVELOPE_MAGIC + bytes([len(backend)]) + backend.encode()
        assert blob.startswith(prefix)
        return blob[len(prefix) :]

    def test_pipeline_blob(self, backend):
        config = WIDE_CONFIG.replace(backend=backend, backend_threads=2)
        blob = WaveletCompressor(config).compress(rough_array())
        body = STOCK_INFLATE[backend](self._payload(blob, backend))
        assert body == container.unwrap_envelope(blob)[0]
        header, sections = container.read_body(body)
        assert header["index_dtype"] == "uint16"
        assert set(sections) == {"bitmap", "averages", "indices", "rawvals"}

    def test_lossless_blob_with_small_blocks(self, backend):
        arr = rough_array().astype(np.float32)
        codec = get_codec(backend, threads=2, block_bytes=256)
        blob = container.wrap_envelope(_lossless_body(arr), backend, codec=codec)
        body = STOCK_INFLATE[backend](self._payload(blob, backend))
        _header, sections = container.read_body(body)
        assert sections["data"] == arr.tobytes()


class TestRetiredBackendGoldens:
    """What the retired ``zstd`` / ``lz4`` encoders wrote still restores,
    exactly as its ``zlib`` / ``float32`` twin does."""

    def test_zstd_pipeline_blob(self):
        blob = base64.b64decode(RETIRED_BACKEND_BLOBS_B64["zstd"])
        expected = WaveletCompressor.decompress(
            WaveletCompressor(GOLDEN_CONFIG).compress(golden_array())
        )
        assert WaveletCompressor.decompress(blob).tobytes() == expected.tobytes()
        assert inspect(blob)["config"]["backend"] == "zstd"

    def test_lz4_lossless_blob(self):
        blob = base64.b64decode(RETIRED_BACKEND_BLOBS_B64["lz4"])
        arr = rough_array().astype(np.float32)
        decoded = deserialize_array(blob)
        assert decoded.dtype == arr.dtype and decoded.tobytes() == arr.tobytes()


@pytest.mark.skip(reason="utility: run manually to regenerate the v2 golden blobs")
def test_generate_reference():  # pragma: no cover
    for case, (encode, _decode) in CASES.items():
        print(case, base64.b64encode(encode()).decode())
    for case, (scale, _index_dtype) in FILTERED_CASES.items():
        print(case, base64.b64encode(_filtered_temporal_pair(scale)[1]).decode())
