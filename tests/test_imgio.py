import pytest

from swpnet.imgio import ImageFormatError, read_ppm


@pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6")], ids=["ppm"])
@pytest.mark.parametrize("header, message", [
    (b"\nab 2\n255\n", r"non-integer header field b'ab' in .*bad\.img"),
    (b"\n0 0\n255\n", r"image size 0x0 in .*bad\.img"),
    (b"\n3 -1\n255\n", r"image size 3x-1 in .*bad\.img"),
], ids=["non_integer", "zero_size", "negative_height"])
def test_malformed_header_names_the_file(tmp_path, reader, magic, header, message):
    path = tmp_path / "bad.img"
    path.write_bytes(magic + header + bytes(64))
    with pytest.raises(ImageFormatError, match=message):
        reader(path)
