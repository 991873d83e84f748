"""Golden-output tripwire: `xkmeans run` at seed 0 must write the same bytes.

Each case pins the sha256 of every tree JSON, tree DOT and trace file it
writes, and of results.csv with its last column (wall_time_ms, the only
timing) removed. A change that means to keep outputs byte-identical must
leave these digests alone. A change that means to move bits regenerates
them with `PYTHONPATH=src python tests/test_golden.py` and says so in its
record.
"""

import csv
import hashlib
import io
import json
import sys
from importlib.resources import files

import pytest

from xkmeans.cli import main

IRIS = str(files("xkmeans").joinpath("data/iris.csv"))

CASES = {
    "iris": ["--data", IRIS, "--k", "3", "--leaves", "k,2k"],
    # k' = n: Iris has 149 distinct points, so exkmc, exkmc_imm and kdtree
    # stop at 149 leaves on zero-gain ties and gini_tree at 5
    "iris_deep": ["--data", IRIS, "--k", "3", "--leaves", "k,40,150"],
    "blobs_1d": ["--synth", "blobs", "--k", "3", "--d", "1", "--n", "300", "--leaves", "k,2k,4k"],
    "blobs_2d": ["--synth", "blobs", "--k", "4", "--d", "2", "--n", "300", "--leaves", "k,2k,4k"],
    # wider than one 64-feature scan block, on the threaded scan path;
    # gini grows to 5 leaves and the other tree builders to 12
    "synthetic2_wide": [
        "--synth", "synthetic2", "--k", "3", "--d", "130", "--leaves", "k,4k", "--jobs", "2",
    ],
}

# case -> output file -> sha256
GOLDEN = {
    "blobs_1d": {
        "results.csv": "f8d4d57d22c8bcb18147a6025bdcee3e142a9cab4a439653160188b8d42b547b",
        "trace_exkmc_imm_k12.jsonl": "fdf2f0fe8daa3210932a37d25ae3944446d47cc4293a81b9d5be390d51d42b68",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "2b08d45fb22c0b8c67b279d6d73711e5eeb5a97c1c2f7eca26a1322cfce2923a",
        "trace_exkmc_k12.jsonl": "0ba4d0505d8e86207f6b82d3ff1fc3876239a29682011a6a603206e9c8561759",
        "trace_exkmc_k3.jsonl": "d071697c589c55483008bc46eea10cc3a6994b94e5e15841050e9dfc2542e04d",
        "trace_exkmc_k6.jsonl": "5a978c3119fe012458619bece79b94c32e8999ebd1ac985687077a79d6fafa67",
        "tree_exkmc_imm_k12.dot": "65489df0268853e6153e64751ad99a2919ab3c6f25cc6d23abdbd8a58eff854a",
        "tree_exkmc_imm_k12.json": "02d7be54ec68ca0f65dd49642e069cd7934b7ac2c44585eed51a172992c83a98",
        "tree_exkmc_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_exkmc_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_exkmc_imm_k6.dot": "f4b1c1421c4739844b7a70114ba77dcd168bc3a9f538ddce6436150f2ab80284",
        "tree_exkmc_imm_k6.json": "adad620524156fc5c88feffaea4cae34b823b7d3bea01fa6ddcc56e002aa90f7",
        "tree_exkmc_k12.dot": "e8bebd3fc67465fec5ee9a909c89bf72206f997b08c50559f4bf08971d8e3128",
        "tree_exkmc_k12.json": "467d9e62b018804b16ab45afee9d016c551fbef0afed2db0e1715dfd5f6217f2",
        "tree_exkmc_k3.dot": "4d23d21976d8609cc6af2ca33cb9d6fb79503bb6967209ea71f3217a74fa3045",
        "tree_exkmc_k3.json": "bb4769bbf13d1d0ce367c055bf1a0c1cce60f2af2f593b49da529662cb63feef",
        "tree_exkmc_k6.dot": "d3f19673272c7ee9710b1e44150da8b2865f0f29dd9fcc7ab2d9863ba2d70dc0",
        "tree_exkmc_k6.json": "69e86418f9dda5eccaa64ee38a2a661e15bf4f629a861ef78332d7c7b3b3ae86",
        "tree_gini_tree_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_kdtree_k12.dot": "3998965c0a01f917051fa710379a50c2ce1a0ce8f089200773c345993e1bccaf",
        "tree_kdtree_k12.json": "2fc5254a08bef5520700d017905dbb567250088782a9917f7ede8540b6485115",
        "tree_kdtree_k3.dot": "1efbda0ae97c4462428c15bd2b5a97f8bcede5845d6aa72006851592cb59c153",
        "tree_kdtree_k3.json": "d573843aeb467ea1717db0d8dfa936f1ba2073cde64ffb18fdbc24ada1232b47",
        "tree_kdtree_k6.dot": "bf0672d50af07749b83d5f51a774c035b58630e780848208ef7c42cc83ba44a1",
        "tree_kdtree_k6.json": "bd31e619c94c228f782c4d852163650d37c16bad872689974021dc6813929e71"
    },
    "blobs_2d": {
        "results.csv": "33314a9da71a0754bfd317b2cb14021aed955d2bb9770c453284ae498afc3d0d",
        "trace_exkmc_imm_k16.jsonl": "f4e02e26fd6b524ecede35a18143246bbf038003724fb3a5e47deec81080f06c",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k8.jsonl": "589bf9a968193f0974d44b8195f90a5220b3c414ea40e065c0b410bda074f0e8",
        "trace_exkmc_k16.jsonl": "c5e761c6718db63ef7a4a7216aca922f1fc4fde28f4966916fdf682ed0709688",
        "trace_exkmc_k4.jsonl": "020be36b4ec0d9b3c43275a2f86999f4df6eede1fd71b0333524e6997a465ada",
        "trace_exkmc_k8.jsonl": "44127d636fe830bfefa2ce84071f2a2900dfdd34dbfb8cb9c0a4cd3a173169f0",
        "tree_exkmc_imm_k16.dot": "6b3d3d5f62dec223954efd457c3835fa9f4ae46ab09c54dded2e8b4e2c0ee4ad",
        "tree_exkmc_imm_k16.json": "c3578df956db2607b18d5f9291961ccf548b9d721b093a598c442f10620559f7",
        "tree_exkmc_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_exkmc_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_exkmc_imm_k8.dot": "90ad6d7d7716079a7e475472e4427c4d565030add7cb74c6734c6f559964bf9a",
        "tree_exkmc_imm_k8.json": "83f4abaccffc95549562424f75c47f111e53581d238d16010490fd95bcd1f413",
        "tree_exkmc_k16.dot": "ae5b954dd3e21f98ba2d050015770c7641f5df255f1e7f072f75860d476d74d5",
        "tree_exkmc_k16.json": "65ad58d57d3409abaa30defd085c5c8c7a66fc8348eaa86b30f086af0b278781",
        "tree_exkmc_k4.dot": "2b0d30b81ba37bcd500885757643ed5497b0fe0f0b6c944bbd76a9c04d649e7c",
        "tree_exkmc_k4.json": "3a37dce2d44149d204de7f46e69f9aaf2ab5c8fde97da67568c23735a67382ef",
        "tree_exkmc_k8.dot": "32fd5a2abdab5b0fd38906da324599e70f18a82152f878006788af9a01126dcc",
        "tree_exkmc_k8.json": "7ae4b07737f4a49b7cfc14a4bc043ab3695de345273fcbc564812806931a59a2",
        "tree_gini_tree_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_kdtree_k16.dot": "c69c5f97cb1ff4c72e8eb4cabfda874c8d31f9ca652a570e20def1afdf6cf77b",
        "tree_kdtree_k16.json": "993a4fbc0aac19dde9a76400b0c91874b528701f6deb54be3b5c87ba9b28c2d8",
        "tree_kdtree_k4.dot": "0941e9edb4a6c554941661a0568f4ba3e5b258ab8ff092401185f63b0efdcb04",
        "tree_kdtree_k4.json": "392aea1cec2c4017d26658ed366afbb51ad7348638f8cd5f49d46eb4e22f0552",
        "tree_kdtree_k8.dot": "a55bf6511e347cf3fbc90773526d7f50558285342d2e9a9c3a8c1add62a024d7",
        "tree_kdtree_k8.json": "0a62d3321d998c88746ca7505022af1071e9cfd145cbd79bc4a9b42227aeb81e"
    },
    "iris": {
        "results.csv": "0fa0b277d942bda89bc41f5e44e4be7d730850681363b70972aecad1dc20803f",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "0aeaf01c46bc7b51b54101a093caaa4c5a19d4b862f9c77c2b07e7cbf6d5b91b",
        "trace_exkmc_k3.jsonl": "7fdaab69daddff28c373e9fa696f6035a8f33889772527b0a4ffd805f07b8923",
        "trace_exkmc_k6.jsonl": "59471d45d068d8b9dc86425a93edb577d8a0f8841a077201f0042f38e37e7866",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k6.dot": "f72e53b72ca172e6ebdc738e3a79d78bd6a87af578980065a236a3e6ce8d0084",
        "tree_exkmc_imm_k6.json": "b48de29bb1f7ec300304b3a977f48bdc7f5ed2cbf6a174797e141cccb5840f45",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k6.dot": "f72e53b72ca172e6ebdc738e3a79d78bd6a87af578980065a236a3e6ce8d0084",
        "tree_exkmc_k6.json": "b48de29bb1f7ec300304b3a977f48bdc7f5ed2cbf6a174797e141cccb5840f45",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k6.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k6.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k6.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k6.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k6.dot": "ac5063670e6445f17ff7344ba42dc43d235df383712eb87883982c9fed06a0bb",
        "tree_kdtree_k6.json": "11f2e8974adfc9a47d817504e2605ac93af8a3fdb546bf8da3ddda697bf856c4"
    },
    "iris_deep": {
        "results.csv": "36d917ec906f8c3bd69dcb6285394ffae01428b94c60317791a404bb0b57de9f",
        "trace_exkmc_imm_k150.jsonl": "8e22280f655e95c1e09250fc955f028ea89d4701f99e058dc26dfeee2522ec94",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k40.jsonl": "7533bbfa5385f1633ab5509de47625eefc12552fa42e72e5ce2b6cc1e1781ddf",
        "trace_exkmc_k150.jsonl": "1429c4190472d7fae4ab228271f5a26e052efdda3920f74c811891d009b4569d",
        "trace_exkmc_k3.jsonl": "7fdaab69daddff28c373e9fa696f6035a8f33889772527b0a4ffd805f07b8923",
        "trace_exkmc_k40.jsonl": "8d6e428b3ae87a783ecefa764c8bffa0db8a94769ef97bd6716938dd951df470",
        "tree_exkmc_imm_k150.dot": "5a9b0ad75a82baa4f0466341e5f196051043e00cebbb7ed8aaf73e7ff0058671",
        "tree_exkmc_imm_k150.json": "0f2b19169fde1f9e2554c3bb24ad974f90dbeb9400d8cd9660e9f75d7a4866f6",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k40.dot": "0666e8510fc86eaede43bdecd0b98a62acdd032b47928d3556e75ab1b0573a51",
        "tree_exkmc_imm_k40.json": "3b1019d93a30f0e219bb52666ab722a77601c6bed6ccd57529d6e1587cf97254",
        "tree_exkmc_k150.dot": "5a9b0ad75a82baa4f0466341e5f196051043e00cebbb7ed8aaf73e7ff0058671",
        "tree_exkmc_k150.json": "0f2b19169fde1f9e2554c3bb24ad974f90dbeb9400d8cd9660e9f75d7a4866f6",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k40.dot": "0666e8510fc86eaede43bdecd0b98a62acdd032b47928d3556e75ab1b0573a51",
        "tree_exkmc_k40.json": "3b1019d93a30f0e219bb52666ab722a77601c6bed6ccd57529d6e1587cf97254",
        "tree_gini_tree_k150.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k150.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k40.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k40.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k150.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k150.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k40.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k40.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k150.dot": "321cabbdcbd393ad33cf7e9e729b75064ed9ec712f80e2eb9bbade732ed61312",
        "tree_kdtree_k150.json": "61efcda650067cef903e41271eeab3f1c3a0419d24e9f0374f10fc1656a9b977",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k40.dot": "a1a139880c771b7dd3943e22345a3581274c7a77c24310293c817d560b49d02b",
        "tree_kdtree_k40.json": "e489e03868a9e6e53a42283cca22a4200b4b47d006a4e1c29f68341c7dac003f"
    },
    "synthetic2_wide": {
        "results.csv": "546721db2680823ed1c4f90088d97b799979bd7f8e869e7784cfbdd6ebd595a2",
        "trace_exkmc_imm_k12.jsonl": "708d66ce2c6d2e1dbb8a7d547e5f1b67323b67a5a8dd594e3112d05bf58bc94b",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_k12.jsonl": "d764e85919897321c4f738c76d481160be3d4e19c69238dd8015d7b32000ee42",
        "trace_exkmc_k3.jsonl": "c240646c048da0cdcddd7b40658a96a18131def3f00cebc74cb94575d2e85b56",
        "tree_exkmc_imm_k12.dot": "fb5b224c2ce9fdee5832ddd4c60ca6af8fa8d14e3170ceeda1c558d86de86a80",
        "tree_exkmc_imm_k12.json": "7e3cb59cf75815bc246b42c7419eed6c69316bf509af19784d943166a5550f0e",
        "tree_exkmc_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_exkmc_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_exkmc_k12.dot": "54d5d295c1791dc708e77d9e6ebe4a765c48074b3b20c7e33b370d4378fad33e",
        "tree_exkmc_k12.json": "e4a7ff7c7fca684b3ee41243cc8b43c3783883b4ac77335d3158d904c43ca71e",
        "tree_exkmc_k3.dot": "d20ef5c9776946165a888ed42120548b4faf144aa34d1e2125423cea87ff406d",
        "tree_exkmc_k3.json": "1d8dfffcf5da88a6d59346cb81acd287d41b5fc185a2361c7fc42d95946a3284",
        "tree_gini_tree_k12.dot": "d1983e53a185a97b9f472e472be537d9a4f163126b369f27e7d054e9f30ce2bf",
        "tree_gini_tree_k12.json": "3a619cadbea180019f0aab414f3f39463fc6b5a47860406ff47649bf9133000e",
        "tree_gini_tree_k3.dot": "f888db93d4072db0ae96a7e2a930cd76eab776a9e2cb2883d9781b09a33f3946",
        "tree_gini_tree_k3.json": "9464b0f0d8aed4696844035d46d7071e3baed8394114ad5210cced78d591b9b6",
        "tree_imm_k12.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k12.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_kdtree_k12.dot": "05ef5fb49300e948dd95313373edb162b30c2dea03a5601181a410ba80a5ebaa",
        "tree_kdtree_k12.json": "c85e53720382c8efdfa3da0f06c31b6583e04698c5c709283c356142d1dd2bdd",
        "tree_kdtree_k3.dot": "dcb5e8d91ae9930bb4e47d0e3823400f85ce03bf50525b7068dbbb851e4caf58",
        "tree_kdtree_k3.json": "4dcf4c2a45698c61a40eef37b9ba1a19bb17a64d7b7a28fb198ac9d9c34caaf3"
    }
}


def _results_without_timing(path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_time_ms"  # the one timing column is the last
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:-1] for row in rows)
    return out.getvalue().encode()


def digests(case: str, out_dir) -> dict[str, str]:
    """sha256 of each output file of one case, run into `out_dir`."""
    assert main(["run", *CASES[case], "--seed", "0", "--out", str(out_dir)]) == 0
    found = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "results.csv":
            data = _results_without_timing(path)
        elif path.name.startswith(("tree_", "trace_")):
            data = path.read_bytes()
        else:
            continue
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    got = digests(case, tmp_path)
    assert sorted(got) == sorted(GOLDEN[case]), "a different set of output files"
    changed = [name for name in got if got[name] != GOLDEN[case][name]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    # print a fresh GOLDEN table, for a change that moves bits on purpose
    import contextlib
    import tempfile
    from pathlib import Path

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            table[case] = digests(case, Path(tmp))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
